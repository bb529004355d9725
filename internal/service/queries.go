package service

import (
	"errors"
	"net/http"
	"strconv"
	"strings"

	"ldpjoin/internal/core"
	"ldpjoin/internal/protocol"
)

// The read path beneath the transport: the served estimators. Everything
// the server answers after a finalize is post-processing of immutable
// sketches, so each query is a pure function from column names (and a
// value) to a number, written once as a *Server method that takes no
// http.ResponseWriter or *http.Request and returns its typed result or
// the refusal (an apiError) — the shape operations.go gave the write
// path. One order, the same in every query:
//
//	finalizedColumns → kind check → cache (singleflight) → core estimator
//
// The whole path is lock-free on success: finalized columns come off the
// copy-on-write registry, and the cache owns its own (sharded) locking,
// so an estimate never contends with ingestion. Finalized sketches never
// change, so a memoized entry stays valid until capacity evicts it.
//
// The result structs list their fields in key order: that is the order
// clients have always been served (encoding/json sorts a map's keys), so
// a served body's bytes depend on nothing but its values.

// finalizedColumns resolves every name to its finalized column, or
// explains why not, distinguishing "not ready" from "unknown": a name
// still collecting gets 409 column_not_finalized (finalize it, or wait,
// and retry — the column exists), an unknown name 404 column_not_found.
// Unknown wins when both are present: it is the error the caller cannot
// fix by waiting. Only the refusal touches the lifecycle mutex.
func (s *Server) finalizedColumns(names ...string) ([]*finishedColumn, error) {
	cols := make([]*finishedColumn, len(names))
	resolved := true
	for i, name := range names {
		if cols[i], resolved = s.finished.get(name); !resolved {
			break
		}
	}
	if resolved {
		return cols, nil
	}
	s.mu.Lock()
	var collecting, unknown []string
	for _, name := range names {
		if _, ok := s.pending[name]; ok {
			collecting = append(collecting, name)
		} else if _, ok := s.finished.get(name); !ok {
			unknown = append(unknown, name)
		}
	}
	s.mu.Unlock()
	switch {
	case len(unknown) > 0:
		return nil, apiErrorf(http.StatusNotFound, codeNotFound, unknown[0],
			"unknown column(s): %s", strings.Join(unknown, ", "))
	case len(collecting) > 0:
		return nil, apiErrorf(http.StatusConflict, codeNotFinalized, collecting[0],
			"column(s) still collecting: %s; finalize them before querying", strings.Join(collecting, ", "))
	default:
		// Every named column finalized between the two looks — the query
		// would succeed now.
		return nil, apiErrorf(http.StatusConflict, codeNotFinalized, "",
			"columns finalized concurrently; retry")
	}
}

// cacheKey builds a collision-proof cache key from a query type and its
// components. Column names can contain any byte (ServeMux
// percent-decodes path values), so no separator is safe on its own —
// each component is length-prefixed instead, which makes the encoding
// injective regardless of content.
func cacheKey(typ string, parts ...string) string {
	var b strings.Builder
	b.WriteString(typ)
	for _, p := range parts {
		b.WriteString(strconv.Itoa(len(p)))
		b.WriteByte(':')
		b.WriteString(p)
	}
	return b.String()
}

func pairJoinKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return cacheKey("join", a, b)
}

// pairEstimate is the pairwise (or self-) join size of two join columns.
type pairEstimate struct {
	Cached   bool    `json:"cached"`
	Estimate float64 `json:"estimate"`
	Left     string  `json:"left"`
	Right    string  `json:"right"`
}

// joinPair estimates the join size of two join columns (Eq 5). The
// inner products scan K·M cells; singleflight makes N concurrent misses
// on the same pair compute them once.
//
// A column joined with itself asks for its second frequency moment F2,
// and the pairwise estimator is wrong for that: the two sides' noises
// are no longer independent, so the naive self product is inflated by
// the protocol's own noise energy, n·(m·k·c_ε²−1). That case is core's
// bias-corrected self-join estimator instead, under its own key.
func (s *Server) joinPair(left, right string) (pairEstimate, error) {
	cols, err := s.finalizedColumns(left, right)
	if err != nil {
		return pairEstimate{}, err
	}
	l, r := cols[0], cols[1]
	if l.kind != protocol.KindJoin || r.kind != protocol.KindJoin {
		return pairEstimate{}, statusError(http.StatusBadRequest,
			"pairwise join needs two join columns or two plus columns (%q is %s, %q is %s); matrix columns join via ?path=",
			left, l.kind.String(), right, r.kind.String())
	}
	if l.attr != r.attr {
		// Well-formed columns that do not compose — a conflict, like a
		// chain out of order; the estimator would panic on them.
		return pairEstimate{}, statusError(http.StatusConflict,
			"columns %q and %q are sketches of different join attributes (%d and %d); a pairwise join needs one hash family",
			left, right, l.attr, r.attr)
	}
	key, estimate := pairJoinKey(left, right), func() (any, error) { return l.join.JoinSize(r.join), nil }
	if left == right {
		key, estimate = cacheKey("selfjoin", left), func() (any, error) { return l.join.SelfJoinSize(), nil }
	}
	v, cached, err := s.cache.do(key, estimate)
	if err != nil {
		return pairEstimate{}, err
	}
	return pairEstimate{Left: left, Right: right, Estimate: v.(float64), Cached: cached}, nil
}

// plusEstimate is the two-phase join size of two plus columns, with its
// low- and high-frequency parts.
type plusEstimate struct {
	Cached       bool    `json:"cached"`
	Estimate     float64 `json:"estimate"`
	HighEstimate float64 `json:"highEstimate"`
	Kind         string  `json:"kind"`
	Left         string  `json:"left"`
	LowEstimate  float64 `json:"lowEstimate"`
	Right        string  `json:"right"`
}

// joinPlus estimates the join size of two plus columns (Algorithm 5),
// memoized beside the plain pairs. The estimate is a sum of pairwise
// products over the columns' group sketches; a column paired with itself
// makes each a self product (see joinPair), and no correction is derived
// for them, so that is refused. Two plus columns that froze different FI
// sets (or phases) do not compose — a conflict, not a malformed request.
func (s *Server) joinPlus(left, right string) (plusEstimate, error) {
	cols, err := s.finalizedColumns(left, right)
	if err != nil {
		return plusEstimate{}, err
	}
	l, r := cols[0], cols[1]
	if l.kind != protocol.KindPlus || r.kind != protocol.KindPlus {
		return plusEstimate{}, statusError(http.StatusBadRequest, "plus join needs two plus columns (%q is %s, %q is %s)",
			left, l.kind.String(), right, r.kind.String())
	}
	if left == right {
		return plusEstimate{}, statusError(http.StatusBadRequest,
			"plus column %q cannot be joined with itself: LDPJoinSketch+ has no noise-corrected self-join estimator", left)
	}
	v, cached, err := s.cache.do(pairJoinKey(left, right), func() (any, error) {
		est, err := core.EstimateJoinPlusColumns(l.plus, r.plus)
		if err != nil {
			return nil, statusError(http.StatusConflict, "plus join: %v", err)
		}
		return est, nil
	})
	if err != nil {
		return plusEstimate{}, err
	}
	est := v.(core.PlusJoinEstimate)
	return plusEstimate{
		Left: left, Right: right, Kind: protocol.KindPlus.String(), Cached: cached,
		Estimate: est.Estimate, LowEstimate: est.LowEstimate, HighEstimate: est.HighEstimate,
	}, nil
}

// joinAB is the A/B comparison of the two estimators over one
// population, held once as plain LDPJoinSketch columns and once as
// two-phase plus columns: the pair query over the first two names and
// the plus query over the last two, nothing of its own. All four names
// resolve first, so an unknown one wins over a collecting one whichever
// arm it is in.
func (s *Server) joinAB(plainLeft, plainRight, plusLeft, plusRight string) (pairEstimate, plusEstimate, error) {
	if _, err := s.finalizedColumns(plainLeft, plainRight, plusLeft, plusRight); err != nil {
		return pairEstimate{}, plusEstimate{}, err
	}
	plain, err := s.joinPair(plainLeft, plainRight)
	if err != nil {
		return pairEstimate{}, plusEstimate{}, err
	}
	plus, err := s.joinPlus(plusLeft, plusRight)
	return plain, plus, err
}

// chainEstimate is the multi-way join size along a path of columns.
type chainEstimate struct {
	Cached   bool     `json:"cached"`
	Estimate float64  `json:"estimate"`
	Path     []string `json:"path"`
}

// joinChain is the multi-way query planner (§VI): names is a chain whose
// ends are join columns and whose middles are matrix columns. It
// validates the composition — kinds in end/middle position and attribute
// slots strictly adjacent, so each matrix's left family is its
// predecessor's right family — and composes the chain estimator over the
// finalized sketches, memoizing the estimate under the literal path. All
// planner work lives inside the cache's compute callback: a memoized
// path was only ever stored after validating against the same immutable
// columns, so a hit returns the estimate without re-running the planner
// at all.
func (s *Server) joinChain(names []string) (chainEstimate, error) {
	if len(names) < 3 {
		return chainEstimate{}, statusError(http.StatusBadRequest, "?path= %v", protocol.ErrChainLength)
	}
	cols, err := s.finalizedColumns(names...)
	if err != nil {
		return chainEstimate{}, err
	}
	v, cached, err := s.cache.do(cacheKey("chain", names...), func() (any, error) {
		// The composition rules — join ends, matrix middles, attribute
		// slots advancing by one — live in protocol.ValidateChain,
		// shared with the federator so the two can never diverge.
		s.chainValidations.Add(1)
		chain := make([]protocol.ChainColumn, len(cols))
		for i, col := range cols {
			chain[i] = protocol.ChainColumn{Name: names[i], Kind: col.kind, Attr: col.attr}
		}
		if err := protocol.ValidateChain(chain); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, protocol.ErrChainOrder) {
				// The columns exist and are well-formed; they just don't
				// compose — a conflict, not a malformed request.
				status = http.StatusConflict
			}
			return nil, statusError(status, "%v", err)
		}
		last := len(cols) - 1
		mids := make([]*core.MatrixSketch, 0, len(cols)-2)
		for _, col := range cols[1:last] {
			mids = append(mids, col.matrix)
		}
		return core.ChainEstimate(cols[0].join, mids, cols[last].join), nil
	})
	if err != nil {
		return chainEstimate{}, err
	}
	return chainEstimate{Path: names, Estimate: v.(float64), Cached: cached}, nil
}

// freqEstimate is the frequency of one value in a join column: the
// mean-of-rows estimate and its median-of-rows companion.
type freqEstimate struct {
	Cached         bool    `json:"cached"`
	Column         string  `json:"column"`
	Estimate       float64 `json:"estimate"`
	EstimateMedian float64 `json:"estimateMedian"`
	Value          uint64  `json:"value"`
}

// freqResult is the memoized value of a frequency query.
type freqResult struct {
	mean   float64
	median float64
}

// frequency estimates how many of a join column's reports carried value
// (Theorem 7), memoized alongside the join results — under the parsed
// value, so 7, 07 and 007 are one entry.
func (s *Server) frequency(name string, value uint64) (freqEstimate, error) {
	cols, err := s.finalizedColumns(name)
	if err != nil {
		return freqEstimate{}, err
	}
	sk := cols[0]
	if sk.kind != protocol.KindJoin {
		return freqEstimate{}, statusError(http.StatusBadRequest, "column %q is a %s column; frequency queries need a join column", name, sk.kind.String())
	}
	v, cached, err := s.cache.do(cacheKey("freq", name, strconv.FormatUint(value, 10)), func() (any, error) {
		mean, median := sk.join.FrequencyMeanMedian(value)
		return freqResult{mean: mean, median: median}, nil
	})
	if err != nil {
		return freqEstimate{}, err
	}
	est := v.(freqResult)
	return freqEstimate{Column: name, Value: value, Estimate: est.mean, EstimateMedian: est.median, Cached: cached}, nil
}
