package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/service"
)

// Latency series of the timed phases.
const (
	opIngest = iota
	opJoin
	opFreq
	opChain
	opPlus
	opAdmin
	numOps
)

// world is everything set-up makes from the seed before timing starts:
// the finalized catalog behind an in-memory server, the harness's own
// reference sketches of it, and the two fixed request sequences. The
// program sees only the generated bytes.
type world struct {
	cfg  config
	wl   workload
	seed int64

	fams         [2]*hashing.Family // join attributes 0 and 1
	famS, famG   *hashing.Family    // plus sample and group families
	fi           []uint64           // the frequent-item set every plus column froze
	catalog      *service.Server
	handler      http.Handler
	joinA, joinB []*joinCol
	matrix       *matrixCol
	plus         []*plusCol

	ingestCols []*ingestCol
	prep       []request // untimed per-trial requests that advance the phase-2 plus columns
	ingest     []request
	reports    int64 // reports in one trial's timed ingest
	query      []queryOp
	queryReqs  []request // query[i].request, for the driver

	// Streams kept for the layer pass, and the one layer timing that
	// set-up gets for free.
	plusBody, matrixBody []byte
	matrixFinalizeMS     float64
}

type joinCol struct {
	name   string
	values []uint64
	ref    *core.Sketch // folded serially by the harness, not by the server
}

type matrixCol struct {
	name string
	a, b []uint64
	ref  *core.MatrixSketch
}

type plusCol struct {
	name   string
	values []uint64
	ref    *core.PlusState
}

// An ingestCol is one column of the durable server and the streams a
// trial sends it. Every trial sends the same streams the same number of
// times, so the finalized export is one fixed byte string per column.
type ingestCol struct {
	name    string
	kind    protocol.Kind
	advance bool // plus column advanced in prep (phase 2 during the timed phase)
	streams []*stream
}

type stream struct {
	group   protocol.PlusGroup // PlusSample/Low/High; unused on join columns
	reports []core.Report
	body    []byte
	sends   int // per trial, prep included
}

// A queryOp is one read request and what the harness needs to compute
// the same answer itself.
type queryOp struct {
	request
	key   string // cache identity: ops with equal keys must get equal answers
	a, b  int    // column indices into the op's catalog slices
	value uint64
}

func buildWorld(cfg config, wl workload, seed int64) (*world, error) {
	p := cfg.params
	w := &world{cfg: cfg, wl: wl, seed: seed}
	for i := range w.fams {
		w.fams[i] = hashing.NewFamily(hashing.AttributeSeed(seed, i), p.K, p.M)
	}
	w.famS = hashing.NewFamily(core.PlusSampleSeed(seed), p.K, p.M)
	w.famG = hashing.NewFamily(core.PlusGroupSeed(seed), p.K, p.M)
	for d := uint64(0); d < frequentItems && d < cfg.domain; d++ {
		w.fi = append(w.fi, d)
	}
	rng := rand.New(rand.NewSource(seed))

	srv, err := service.NewWithOptions(p, seed, service.Options{QueryCacheEntries: cfg.cache})
	if err != nil {
		return nil, err
	}
	w.catalog, w.handler = srv, srv.Handler()
	if err := w.buildCatalog(rng); err != nil {
		srv.Close()
		return nil, err
	}
	w.buildIngest(rng)
	w.buildQuery(rng)
	if wl.query.hot {
		// One warm-up pass over the distinct keys: a dashboard's answers
		// are already cached when we start looking.
		warmed := make(map[string]bool)
		for i := range w.query {
			if warmed[w.query[i].key] {
				continue
			}
			warmed[w.query[i].key] = true
			if r := call(w.handler, "GET", w.query[i].target, nil); r.code != http.StatusOK {
				srv.Close()
				return nil, fmt.Errorf("warm-up %s: %d %s", w.query[i].target, r.code, r.body)
			}
		}
	}
	return w, nil
}

func (w *world) close() { w.catalog.Close() }

// post sends one set-up request to the catalog and fails on a non-200.
func (w *world) post(target string, body []byte) ([]byte, error) {
	r := call(w.handler, "POST", target, body)
	if r.code != http.StatusOK {
		return nil, fmt.Errorf("set-up POST %s: %d %s", target, r.code, r.body)
	}
	return r.body, nil
}

// zipf draws one column of private values.
func (w *world) zipf(rng *rand.Rand, n int) []uint64 {
	return dataset.Zipf(rng.Int63(), n, w.cfg.domain, w.cfg.alpha)
}

// perturb is the client side: one report per private value.
func (w *world) perturb(values []uint64, fam *hashing.Family, rng *rand.Rand) []core.Report {
	reports := make([]core.Report, len(values))
	for i, v := range values {
		reports[i] = core.Perturb(v, w.cfg.params, fam, rng)
	}
	return reports
}

// matrixParams is the shape the server gives a matrix column: M×M cells
// per replica under the scalar budget.
func matrixParams(p core.Params) core.MatrixParams {
	return core.MatrixParams{K: p.K, M1: p.M, M2: p.M, Epsilon: p.Epsilon}
}

// encodeStream writes a join stream, or a plus stream when group is set.
func encodeStream(p core.Params, reports []core.Report, group *protocol.PlusGroup) []byte {
	var buf bytes.Buffer
	wr, err := protocol.NewReportWriter(&buf, p)
	if group != nil {
		wr, err = protocol.NewPlusReportWriter(&buf, p, *group)
	}
	if err != nil {
		panic(err) // params were validated by the server
	}
	for _, r := range reports {
		_ = wr.Write(r) // a bytes.Buffer write cannot fail
	}
	_ = wr.Flush()
	return buf.Bytes()
}

// fold is the serial reference fold: one aggregator, one goroutine.
func fold(p core.Params, fam *hashing.Family, reports []core.Report, times int) *core.Aggregator {
	agg := core.NewAggregator(p, fam)
	for ; times > 0; times-- {
		for _, r := range reports {
			agg.Add(r)
		}
	}
	return agg
}

func (w *world) buildCatalog(rng *rand.Rand) error {
	cfg, p := w.cfg, w.cfg.params
	for attr, n := range []int{cfg.joinA, cfg.joinB} {
		for i := 0; i < n; i++ {
			col := &joinCol{name: fmt.Sprintf("%c%03d", 'a'+attr, i), values: w.zipf(rng, cfg.reports)}
			reports := w.perturb(col.values, w.fams[attr], rng)
			if _, err := w.post(fmt.Sprintf("/v1/columns/%s/reports?attr=%d", col.name, attr), encodeStream(p, reports, nil)); err != nil {
				return err
			}
			if _, err := w.post("/v1/columns/"+col.name+"/finalize", nil); err != nil {
				return err
			}
			col.ref = fold(p, w.fams[attr], reports, 1).Finalize()
			if attr == 0 {
				w.joinA = append(w.joinA, col)
			} else {
				w.joinB = append(w.joinB, col)
			}
		}
	}

	// The middle table of the chain joins: tuples (a, b) across attributes
	// 0 and 1. Its state is K·M² cells, by far the largest object of a run.
	mp := matrixParams(p)
	m := &matrixCol{name: "m0", a: w.zipf(rng, cfg.reports), b: w.zipf(rng, cfg.reports)}
	var buf bytes.Buffer
	mw, err := protocol.NewMatrixReportWriter(&buf, mp)
	if err != nil {
		return err
	}
	agg := core.NewMatrixAggregator(mp, w.fams[0], w.fams[1])
	for i := range m.a {
		r := core.PerturbTuple(m.a[i], m.b[i], mp, w.fams[0], w.fams[1], rng)
		_ = mw.Write(r)
		agg.Add(r)
	}
	_ = mw.Flush()
	w.matrixBody = buf.Bytes()
	if _, err := w.post("/v1/columns/m0/reports?attr=0", w.matrixBody); err != nil {
		return err
	}
	if _, err := w.post("/v1/columns/m0/finalize", nil); err != nil {
		return err
	}
	start := time.Now()
	m.ref = agg.Finalize()
	w.matrixFinalizeMS = float64(time.Since(start)) / 1e6
	w.matrix = m

	// Plus columns, through the served two-phase flow. Every column is
	// advanced with the same frequent-item set, as the collectors of one
	// federation are — columns that froze different sets do not join —
	// and the set is the head of the Zipf domain and not what one noisy
	// sample proposes, so that the cost of a plus join (one frequency
	// estimate per frequent item) does not change with the seed.
	for i := 0; i < cfg.plus; i++ {
		col := &plusCol{name: fmt.Sprintf("p%03d", i), values: w.zipf(rng, cfg.reports)}
		target := "/v1/columns/" + col.name
		nS, nL := len(col.values)/4, len(col.values)*3/8
		sample := w.perturb(col.values[:nS], w.famS, rng)
		g := protocol.PlusSample
		body := encodeStream(p, sample, &g)
		if i == 0 {
			w.plusBody = body
		}
		if _, err := w.post(target+"/reports", body); err != nil {
			return err
		}
		if _, err := w.post(target+"/advance", w.advanceBody()); err != nil {
			return err
		}
		fi := core.NewFISet(w.fi)
		groups := [2][]core.Report{}
		for gi, part := range [][]uint64{col.values[nS : nS+nL], col.values[nS+nL:]} {
			mode, group := core.ModeLow, protocol.PlusLow
			if gi == 1 {
				mode, group = core.ModeHigh, protocol.PlusHigh
			}
			reports := make([]core.Report, len(part))
			for j, v := range part {
				reports[j] = core.FAPPerturb(v, mode, fi, p, w.famG, rng)
			}
			groups[gi] = reports
			if _, err := w.post(target+"/reports", encodeStream(p, reports, &group)); err != nil {
				return err
			}
		}
		if _, err := w.post(target+"/finalize", nil); err != nil {
			return err
		}
		col.ref = &core.PlusState{
			Sample: fold(p, w.famS, sample, 1).Finalize(),
			Low:    fold(p, w.famG, groups[0], 1).Finalize(),
			High:   fold(p, w.famG, groups[1], 1).Finalize(),
			Domain: cfg.domain, Theta: cfg.theta, FI: w.fi,
		}
		w.plus = append(w.plus, col)
	}
	return nil
}

// advanceBody is the JSON body that advances a plus column with the
// catalog's frequent-item set.
func (w *world) advanceBody() []byte {
	body, err := json.Marshal(map[string]any{"domain": w.cfg.domain, "theta": w.cfg.theta, "fi": w.fi})
	if err != nil {
		panic(err)
	}
	return body
}

// buildIngest lays out one trial's write traffic: one stream of
// reportsPerRequest reports per column (two for a phase-2 plus column),
// sent round-robin.
func (w *world) buildIngest(rng *rand.Rand) {
	sh, p := w.wl.ingest, w.cfg.params
	fi := core.NewFISet(w.fi)
	newStream := func(fam *hashing.Family, group *protocol.PlusGroup, mode core.Mode) *stream {
		values := w.zipf(rng, sh.reportsPerRequest)
		reports := make([]core.Report, len(values))
		for i, v := range values {
			if group != nil && *group != protocol.PlusSample {
				reports[i] = core.FAPPerturb(v, mode, fi, p, fam, rng)
			} else {
				reports[i] = core.Perturb(v, p, fam, rng)
			}
		}
		s := &stream{reports: reports, body: encodeStream(p, reports, group)}
		if group != nil {
			s.group = *group
		}
		return s
	}
	sample, low, high := protocol.PlusSample, protocol.PlusLow, protocol.PlusHigh
	for i := 0; i < sh.joinCols; i++ {
		w.ingestCols = append(w.ingestCols, &ingestCol{
			name: fmt.Sprintf("c%02d", i), kind: protocol.KindJoin,
			streams: []*stream{newStream(w.fams[0], nil, 0)},
		})
	}
	for i := 0; i < sh.plusCols; i++ {
		col := &ingestCol{name: fmt.Sprintf("t%02d", i), kind: protocol.KindPlus, advance: i < sh.plusCols/2}
		col.streams = []*stream{newStream(w.famS, &sample, 0)}
		if col.advance {
			// Prep sends the sample once and advances; the timed phase
			// alternates the two groups.
			col.streams[0].sends = 1
			target := "/v1/columns/" + col.name
			w.prep = append(w.prep,
				request{method: "POST", target: target + "/reports", body: col.streams[0].body, col: col},
				request{method: "POST", target: target + "/advance", body: w.advanceBody(), col: col, advance: true})
			col.streams = append(col.streams, newStream(w.famG, &low, core.ModeLow), newStream(w.famG, &high, core.ModeHigh))
		}
		w.ingestCols = append(w.ingestCols, col)
	}
	for i := 0; i < sh.requests; i++ {
		col := w.ingestCols[i%len(w.ingestCols)]
		s := col.streams[0]
		if col.advance {
			s = col.streams[1+(i/len(w.ingestCols))%2]
		}
		s.sends++
		w.ingest = append(w.ingest, request{method: "POST", target: "/v1/columns/" + col.name + "/reports", body: s.body, class: opIngest, col: col})
		w.reports += int64(len(s.reports))
	}
}

// The four kinds of query: a pair join of two attribute-0 join columns, a
// frequency probe of one, a chain join through the matrix column, and a
// pair join of two plus columns.

func getOp(class int, target, key string, a, b int, value uint64) queryOp {
	return queryOp{request: request{method: "GET", target: target, class: class}, key: key, a: a, b: b, value: value}
}

func (w *world) joinOp(a, b int) queryOp {
	l, r := w.joinA[a].name, w.joinA[b].name
	return getOp(opJoin, "/v1/join?left="+l+"&right="+r, "join "+l+" "+r, a, b, 0)
}

func (w *world) freqOp(a int, v uint64) queryOp {
	c := w.joinA[a].name
	return getOp(opFreq, fmt.Sprintf("/v1/frequency?column=%s&value=%d", c, v), fmt.Sprintf("freq %s %d", c, v), a, 0, v)
}

func (w *world) chainOp(a, b int) queryOp {
	path := w.joinA[a].name + "," + w.matrix.name + "," + w.joinB[b].name
	return getOp(opChain, "/v1/join?path="+path, "chain "+path, a, b, 0)
}

func (w *world) plusOp(a, b int) queryOp {
	l, r := w.plus[a].name, w.plus[b].name
	return getOp(opPlus, "/v1/join?left="+l+"&right="+r, "plus "+l+" "+r, a, b, 0)
}

// frequentItems is how many values, from the head of the Zipf domain,
// every plus column treats as frequent.
const frequentItems = 8

// Sizes of the hot shape's key sets: what a dashboard keeps asking.
const (
	hotJoins  = 8
	hotFreqs  = 64
	hotChains = 4
	hotPlus   = 4
)

// buildQuery lays out one trial's read traffic. Every trial replays it,
// so on the cold shape a key comes round again only after the trial's
// other keys — more than the cache holds — have pushed it out.
func (w *world) buildQuery(rng *rand.Rand) {
	sh := w.wl.query
	// pairs lists every unordered pair of n columns in a seeded order.
	pairs := func(n int) [][2]int {
		var out [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, [2]int{i, j})
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	joinPairs, plusPairs := pairs(len(w.joinA)), pairs(len(w.plus))
	chainPairs := make([][2]int, 0, len(w.joinA)*len(w.joinB))
	for i := range w.joinA {
		for j := range w.joinB {
			chainPairs = append(chainPairs, [2]int{i, j})
		}
	}
	rng.Shuffle(len(chainPairs), func(i, j int) { chainPairs[i], chainPairs[j] = chainPairs[j], chainPairs[i] })

	// pick returns the i-th key of a class: sweeping the whole list when
	// cold, cycling through its first few entries when hot.
	pick := func(list [][2]int, i, hot int) [2]int {
		if sh.hot {
			return list[i%min(hot, len(list))]
		}
		return list[i%len(list)]
	}
	hotValues := make([][2]uint64, hotFreqs)
	for i := range hotValues {
		hotValues[i] = [2]uint64{uint64(rng.Intn(len(w.joinA))), uint64(rng.Int63n(int64(w.cfg.domain)))}
	}
	var ops []queryOp
	for i := 0; i < sh.joins; i++ {
		pr := pick(joinPairs, i, hotJoins)
		ops = append(ops, w.joinOp(pr[0], pr[1]))
	}
	for i := 0; i < sh.freqs; i++ {
		if sh.hot {
			hv := hotValues[i%hotFreqs]
			ops = append(ops, w.freqOp(int(hv[0]), hv[1]))
		} else {
			// Values uniform on 2^32: almost none was ever reported.
			ops = append(ops, w.freqOp(rng.Intn(len(w.joinA)), uint64(rng.Uint32())))
		}
	}
	for i := 0; i < sh.chains; i++ {
		pr := pick(chainPairs, i, hotChains)
		ops = append(ops, w.chainOp(pr[0], pr[1]))
	}
	for i := 0; i < sh.plusJoins; i++ {
		pr := pick(plusPairs, i, hotPlus)
		ops = append(ops, w.plusOp(pr[0], pr[1]))
	}
	for i := 0; i < sh.admin; i++ {
		target := "/v1/stats"
		if i%2 == 0 {
			target = "/v1/columns/" + w.joinA[i/2%len(w.joinA)].name
		}
		ops = append(ops, queryOp{request: request{method: "GET", target: target, class: opAdmin}})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	w.query = ops
	w.queryReqs = make([]request, len(ops))
	for i := range ops {
		w.queryReqs[i] = ops[i].request
	}
}
