// Package service exposes the LDP aggregation server over HTTP: client
// gateways POST perturbed report streams (the internal/protocol wire
// format) into named columns; once a column is finalized the server
// answers join-size and frequency queries and exports sketches for
// persistence. It is the deployable face of the paper's server side.
//
// Columns are polymorphic over the sketch kind, and the kind is a value:
// the mutating path (reports, merge, finalize, snapshot, checkpoints,
// recovery) is written once over the per-kind ops table in kinds.go,
// join.go, matrix.go and plus.go. The whole API is split into transport
// and what it carries: every route in this file is one shape — a
// function from the request to its 200 value or its refusal — behind
// the one adapter that writes to the client (respond). The three things
// that can happen to a collecting column — reports, advance, merge —
// are the operations in operations.go, which WAL recovery runs too, and
// the served estimators — pair join, plus join, chain join, frequency —
// are the queries in queries.go; none of them ever sees a
// ResponseWriter.
//
// A KindJoin stream feeds
// a single-attribute LDPJoinSketch column; a KindMatrix stream feeds a
// two-attribute (middle-table) matrix column, the §VI building block of
// chain joins; a KindPlus stream feeds a two-phase LDPJoinSketch+
// column (§V) — a phase-1 sample window whose frequent-item set FI is
// frozen by POST .../advance (broadcast via GET .../fi), then phase-2
// high/low group sketches keyed by that set, estimated together by
// core.EstimateJoinPlusColumns. The kind comes from the stream header,
// is persisted in the store manifest, and is enforced on every later
// request — a name claimed by one kind refuses the others. Each column also occupies a
// join-attribute slot (?attr=, default 0): attribute i's hash family
// derives from the shared seed via hashing.AttributeSeed, a join column
// aggregates under attribute attr, and a matrix column spans attributes
// (attr, attr+1). Two columns are chain-composable exactly when their
// slots are adjacent, which is what the join planner checks.
//
// Ingestion folds inline (internal/ingest): each request body is
// decoded in full (bounded by MaxStreamReports, so a malformed or
// oversized stream is rejected atomically), WAL-appended, and folded
// into the column's one aggregator by the request's own goroutine
// before it is acknowledged. A fold is a few nanoseconds a report;
// requests to distinct columns fold concurrently.
//
// Queries: GET /v1/join?left=A&right=B answers a pairwise estimate (and
// with left == right the column's self-join size F2, from the
// noise-corrected core.Sketch.SelfJoinSize — the pairwise product of a
// sketch with itself is inflated by its own noise energy);
// GET /v1/join?path=A,AB,BC,C runs the chain planner — ends must be
// join columns, every middle a matrix column, slots adjacent — and
// composes core.ChainEstimate across them. Finalized sketches are
// immutable, so the whole query path is lock-free: finalized columns
// resolve through an atomic copy-on-write registry, and every query
// result (pairwise, chain, frequency) is memoized in one bounded,
// sharded query cache with per-key singleflight — concurrent misses on
// the same key compute once and share the result. When the cache is
// full the oldest entry is evicted, and /v1/stats counts hits, misses,
// evictions, and coalesced computes.
//
// Federation: sketches are linear, so aggregation state built on
// different collectors merges exactly. GET /snapshot exports a column
// (join or matrix) as a SNAP-encoded snapshot, and POST /merge folds a
// snapshot from another collector into the local column, inferring the
// column's kind and attribute slot from the snapshot's seed
// fingerprint.
//
// Durability: with Options.DataDir set, every accepted report batch and
// merge is appended to a per-column write-ahead log (internal/store)
// and fsynced before the request is acknowledged, finalize persists the
// finalized SNAP and retires the column's log, and Shutdown checkpoints
// collecting columns. A restarted server replays the store through the
// same operations live traffic runs, distinct columns concurrently, so
// collecting columns resume and finalized sketches reappear — and
// because aggregation cells are exact integers for every kind, a
// recovered column finalizes to a sketch byte-identical to an
// uninterrupted run. Losing collecting
// state would mean re-collecting reports, which re-spends each user's
// privacy budget: durability is a privacy property, not just an ops
// one.
//
//	POST /v1/columns/{name}/reports    body: KindJoin, KindMatrix, or
//	                                   KindPlus report stream; ?attr=
//	                                   selects the slot (plus: always 0)
//	POST /v1/columns/{name}/advance    freeze a plus column's FI and flip
//	                                   it to phase 2 (?domain=&theta= or
//	                                   JSON {domain,theta,fi})
//	POST /v1/columns/{name}/finalize
//	POST /v1/columns/{name}/merge      body: SNAP or PSNP snapshot to fold in
//	GET  /v1/columns/{name}            column status (JSON)
//	GET  /v1/columns/{name}/fi         a plus column's frozen (or, with
//	                                   ?domain=&theta=, proposed) FI set
//	GET  /v1/columns/{name}/sketch     marshaled join sketch (octet-stream)
//	GET  /v1/columns/{name}/snapshot   SNAP/PSNP snapshot (octet-stream)
//	GET  /v1/join?left=A&right=B       pairwise join estimate (JSON);
//	                                   plus columns pair the same way;
//	                                   left == right is a join column's
//	                                   self-join size (plus: 400)
//	GET  /v1/join?path=A,AB,BC,C       chain (multi-way) join estimate
//	GET  /v1/join?ab=pL,pR,sL,sR       A/B: plain vs plus estimate over the
//	                                   same population (&truth= adds errors);
//	                                   each arm is the pairwise query, so
//	                                   pL == pR is a self-join, sL == sR 400
//	GET  /v1/frequency?column=A&value=7
//	GET  /v1/stats                     server counters (JSON)
//	GET  /v1/healthz
package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/ingest"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/store"
)

// DefaultMaxStreamReports caps how many reports a single POST body may
// carry unless Options overrides it (4Mi reports ≈ 28 MiB of wire). The
// cap also bounds per-request memory: a request is decoded in full
// before anything is folded, so the rejection of a malformed stream
// stays atomic.
const DefaultMaxStreamReports = 1 << 22

// DefaultAttributes is how many join-attribute hash families the server
// derives unless Options overrides it — enough for a 4-way chain
// (attributes 0..3) out of the box.
const DefaultAttributes = 4

// DefaultQueryCacheEntries bounds the unified query cache unless
// Options overrides it. Estimates are one float (or two for a
// frequency) per entry, so the default costs a few hundred KiB at
// worst while still absorbing any realistic dashboard workload.
const DefaultQueryCacheEntries = 4096

// Options tunes the server. The zero value selects defaults.
type Options struct {
	// MaxStreamReports caps the reports accepted per request body: 0
	// selects DefaultMaxStreamReports. The cap is also the per-request
	// memory bound — each request buffers its decoded reports until the
	// stream ends — so it cannot be disabled: a negative value is
	// refused at startup.
	MaxStreamReports int
	// Attributes is the number of join-attribute hash families the
	// server derives (attribute 0 is the base seed's family). A chain
	// over n attributes needs Attributes >= n. 0 selects
	// DefaultAttributes.
	Attributes int
	// QueryCacheEntries caps the unified query cache (join, chain, and
	// frequency estimates): 0 selects DefaultQueryCacheEntries,
	// negative disables memoization entirely.
	QueryCacheEntries int
	// DataDir enables durability: accepted reports and merges are
	// WAL-appended under this directory before they are acknowledged,
	// finalized sketches are persisted, and a server reopened on the
	// same directory (and the same params + seed) recovers every
	// column. Empty means in-memory only, the prior behavior.
	DataDir string
	// Store tunes the column store when DataDir is set (segment
	// rotation size, fsync policy, background checkpoint triggers —
	// store.Options.CheckpointBytes / CheckpointInterval turn the
	// background checkpointer on).
	Store store.Options
	// TenantRate enables per-tenant request rate limiting: each tenant
	// (the Authorization bearer token; "anonymous" without one) gets a
	// token bucket refilled at this many requests per second. <= 0
	// disables rate limiting.
	TenantRate float64
	// TenantBurst is the token bucket's capacity when TenantRate is on;
	// < 1 selects 1.
	TenantBurst int
}

// finishedColumn is a finalized column of one kind.
type finishedColumn struct {
	kind   protocol.Kind
	attr   int
	join   *core.Sketch
	matrix *core.MatrixSketch
	plus   *core.PlusState
}

// n returns the reports the finalized sketch summarizes.
func (c *finishedColumn) n() float64 {
	switch c.kind {
	case protocol.KindMatrix:
		return c.matrix.N()
	case protocol.KindPlus:
		return c.plus.Population()
	}
	return c.join.N()
}

// snapshot wraps the finalized state as a snapshot without copying.
func (c *finishedColumn) snapshot() protocol.ColumnSnapshot {
	switch c.kind {
	case protocol.KindMatrix:
		return protocol.SnapshotOfMatrixSketch(c.matrix)
	case protocol.KindPlus:
		return protocol.PlusSnapshotOfState(c.plus)
	}
	return protocol.SnapshotOfSketch(c.join)
}

// lostToFinalize reports whether err means the column was retired —
// finalized or drained — underneath the caller: a benign race, because
// whoever retired it made (or is making) its state durable.
func lostToFinalize(err error) bool { return errors.Is(err, ingest.ErrFinalized) }

// Server aggregates LDP reports into named columns. It is safe for
// concurrent use; Close checkpoints a durable server's collecting
// columns and releases its store.
//
// The read path is lock-free: finalized columns live in a copy-on-write
// registry (immutable sketches make a pointer load a complete lookup),
// query results memoize in a sharded singleflight cache that owns its
// locking, and the stats counters are atomics. The lifecycle mutex mu
// below guards only what actually mutates: the collecting-column map,
// the closed flag, and writes (never reads) of the finished registry.
type Server struct {
	params  core.Params
	matrixP core.MatrixParams
	seed    int64             // the deployment's base hash seed
	fams    []*hashing.Family // fams[i] is join attribute i's family
	// A plus column's three sketches hash under families derived from
	// the base seed (attribute 0): the phase-1 sample under the sample
	// seed, both phase-2 group sketches under the shared group seed.
	famPlusSample *hashing.Family
	famPlusGroup  *hashing.Family
	engine        *ingest.Engine // the column factory
	maxStream     int
	st            *store.Store        // nil when DataDir is unset
	recovered     store.RecoveryStats // what startup replay rebuilt; read-only after New
	recoveryTime  time.Duration       // how long that replay took; read-only after New
	ckpt          *store.Checkpointer // nil unless background triggers are configured
	tenants       *tenantRegistry     // nil unless tenant limits are configured
	metrics       httpMetrics         // per-route request accounting for /metrics

	// mu is the lifecycle mutex: it guards the pending map and every
	// *write* to closed and the finished registry, so "is this name
	// pending / finalized / too late" is answered consistently by anyone
	// holding it. Reads of closed and finished go through the atomics
	// and never take it.
	mu      sync.Mutex
	closed  atomic.Bool // written under mu; read lock-free
	pending map[string]*pendingColumn

	finished  finishedRegistry // finalized columns; lock-free reads
	cache     *queryCache      // sharded, owns its locking
	snapshots counterMap       // per-column snapshot exports
	merges    counterMap       // per-column merges

	// chainValidations counts planner runs (protocol.ValidateChain over
	// a full path). Memoized chain queries skip the planner, so the
	// counter lets tests — and operators — see that they do.
	chainValidations atomic.Int64
}

// New creates a server with default options; the hash family derives
// from seed (shared with every participant).
func New(p core.Params, seed int64) (*Server, error) {
	return NewWithOptions(p, seed, Options{})
}

// NewWithOptions creates a server for the given protocol parameters,
// public hash seed, and tuning options. With Options.DataDir set it
// opens the column store and replays its state through the column
// operations before returning: collecting columns resume where the last
// acknowledged request left them, finalized sketches are queryable
// immediately.
func NewWithOptions(p core.Params, seed int64, o Options) (*Server, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	// Refuse at startup a depth no report stream could carry, rather
	// than answering every stream with a header mismatch.
	if err := protocol.CheckWireK(p.K); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	maxStream := o.MaxStreamReports
	if maxStream < 0 {
		return nil, fmt.Errorf("service: MaxStreamReports %d: the per-request report cap is the per-request memory bound and cannot be disabled (0 selects the default %d)",
			maxStream, DefaultMaxStreamReports)
	}
	if maxStream == 0 {
		maxStream = DefaultMaxStreamReports
	}
	attrs := o.Attributes
	if attrs == 0 {
		attrs = DefaultAttributes
	}
	if attrs < 2 {
		return nil, fmt.Errorf("service: need at least 2 attribute families (matrix columns span a pair), got %d", attrs)
	}
	cacheCap := o.QueryCacheEntries
	if cacheCap == 0 {
		cacheCap = DefaultQueryCacheEntries
	}
	fams := make([]*hashing.Family, attrs)
	for i := range fams {
		fams[i] = hashing.NewFamily(hashing.AttributeSeed(seed, i), p.K, p.M)
	}
	s := &Server{
		params:        p,
		matrixP:       core.MatrixParams{K: p.K, M1: p.M, M2: p.M, Epsilon: p.Epsilon},
		seed:          seed,
		fams:          fams,
		famPlusSample: hashing.NewFamily(core.PlusSampleSeed(seed), p.K, p.M),
		famPlusGroup:  hashing.NewFamily(core.PlusGroupSeed(seed), p.K, p.M),
		engine:        ingest.NewEngine(p, fams[0], ingest.Options{}),
		maxStream:     maxStream,
		pending:       make(map[string]*pendingColumn),
		cache:         newQueryCache(cacheCap),
		tenants:       newTenantRegistry(tenantLimits{rate: o.TenantRate, burst: float64(o.TenantBurst)}),
	}
	s.finished.init()
	if o.DataDir != "" {
		st, err := store.Open(o.DataDir, p, seed, o.Store)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		start := time.Now()
		rec, err := st.Recover(recoverer{s})
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("service: %w", err)
		}
		s.st = st
		s.recovered, s.recoveryTime = rec, time.Since(start)
		// Recovery is done, so every column the checkpointer could name
		// exists in the pending map before the first tick can fire.
		s.ckpt = st.StartCheckpointer(s.CheckpointNow)
	}
	return s, nil
}

// Shutdown marks the server closed and — when the server is durable —
// checkpoints every collecting column into the store and closes it. Each
// checkpoint drains its column, whose folds are inline, so it covers
// every acknowledged request, and it retires the column's WAL segments:
// a reopened server restores from
// the checkpoint instead of replaying the log. Because columns register
// in the pending map (under the lock that sets closed) before their
// first WAL append, the snapshot of that map taken here covers every
// column with log records — so the checkpoints also retire the records
// of requests that were cut off mid-flight and never acknowledged,
// instead of leaving them to resurrect on restart. Mutating requests and
// snapshot exports arriving afterwards are rejected with 503 rather
// than racing the shutdown; finalized columns stay queryable. Call it
// after the HTTP listener has stopped accepting requests. Shutdown is
// idempotent.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil
	}
	s.closed.Store(true)
	pending := make(map[string]*pendingColumn, len(s.pending))
	for name, col := range s.pending {
		pending[name] = col
	}
	s.mu.Unlock()
	// Stop the background checkpointer first: an in-flight background
	// checkpoint finishes (Stop waits), and after that nothing contends
	// with the shutdown checkpoints below.
	s.ckpt.Stop()
	if s.st == nil {
		return nil
	}
	var firstErr error
	for name, col := range pending {
		snap, err := col.state.drain()
		if err == nil {
			err = s.st.Checkpoint(name, col.attr, snap)
		}
		if lostToFinalize(err) {
			continue // a concurrent finalize won; the store holds its final state
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("service: checkpointing column %q: %w", name, err)
		}
	}
	if err := s.st.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close is Shutdown for callers with nowhere to report a checkpoint
// error (an unwritable disk at shutdown leaves the WAL in place, so
// recovery replays the log instead of a checkpoint — slower, not
// lossy).
func (s *Server) Close() { _ = s.Shutdown() }

// CheckpointNow cuts a background checkpoint of one collecting column
// while the server keeps serving: rotate the column's WAL, capture the
// in-memory state — exactly the fold of the rotated-out segments — and
// persist it as ckpt-<seq>.snap —
// after which the store deletes the covered segments, bounding what a
// recovery must replay. It is the callback the store's background
// checkpointer runs on its policy triggers, and tests (or an operator
// hook) may call it directly.
//
// The column's opMu is held from the rotate through the state capture —
// the shape handleSnapshot has. The operations hold it across their
// (WAL append, fold) pair, so nothing can be durable-but-uncaptured or
// captured-but-not-durable at the cut. The lock is released before the
// snapshot encodes and persists: ingest continues during the file
// write, and bytes appended meanwhile belong to the next checkpoint
// (the store's cut accounting handles that split).
//
// A column that finalizes, drains, or disappears underneath the
// attempt is a benign race — its state is (or is becoming) durable by
// a stronger mechanism — so those paths return nil rather than
// counting as checkpoint errors.
func (s *Server) CheckpointNow(name string) error {
	if s.st == nil {
		return nil
	}
	s.mu.Lock()
	col, ok := s.pending[name]
	s.mu.Unlock()
	if !ok {
		return nil // finalized (or imported) since the policy scan
	}

	col.opMu.Lock()
	covered, err := s.st.Rotate(name)
	if err != nil {
		col.opMu.Unlock()
		if errors.Is(err, store.ErrColumnFinalized) || errors.Is(err, store.ErrClosed) {
			return nil
		}
		return err
	}
	if covered == 0 {
		col.opMu.Unlock()
		return nil
	}
	snap, err := col.state.capture()
	col.opMu.Unlock()
	if err != nil {
		if lostToFinalize(err) {
			return nil // a concurrent finalize won; final.snap supersedes
		}
		return err
	}

	err = s.st.SaveCheckpoint(name, covered, snap)
	if errors.Is(err, store.ErrColumnFinalized) || errors.Is(err, store.ErrClosed) {
		return nil
	}
	return err
}

// refuseClosed returns the 503 refusal when the server is closed. The
// flag is an atomic written only under s.mu: this fast-path read costs
// no lock, while the lifecycle decisions that matter — register's
// re-check, Shutdown's pending-map snapshot — read it under the mutex
// and stay exactly ordered. A request that slips past the check while
// Close runs still cannot corrupt anything: a drained column refuses it
// with ErrFinalized and a sealed log with store.ErrColumnFinalized, both
// of which surface as clean refusals.
func (s *Server) refuseClosed() error {
	if s.closed.Load() {
		return errServerClosed
	}
	return nil
}

// route is the shape of every API route: the request in; the 200
// response — a value to encode as JSON, or a blob — or the refusal out.
type route func(*http.Request) (any, error)

// blob is the 200 response of the two export routes, which serve an
// encoded sketch instead of JSON.
type blob struct {
	data   []byte
	header [2]string // one optional response header: name, value
}

// respond adapts a route to the mux. It is the only place a route's
// outcome is written to the client: everything beneath it — the route
// functions, the operations, the queries — returns values and errors, so
// no response can be written while a lock is held, and a reader parked
// on its socket stalls nothing but its own request.
func respond(h route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		resp, err := h(r)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		b, ok := resp.(blob)
		if !ok {
			writeJSON(w, http.StatusOK, resp)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if b.header[0] != "" {
			w.Header().Set(b.header[0], b.header[1])
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b.data)
	}
}

// Handler returns the HTTP handler serving the API above, wrapped in
// the tenant admission middleware (when configured) and the per-route
// request accounting /metrics reads.
//
// The closed-server policy is the table's second column, and this loop
// is the one place it is applied: after Shutdown the mutating routes and
// the two exports answer the retryable 503 (Close → 503 on every
// mutating and export route, the PR 3 contract), while queries over
// finalized columns, status, listings, stats, health and /metrics keep
// answering — finalized sketches are immutable, and inspecting a
// draining node is exactly when an operator wants them.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range []struct {
		pattern      string
		refuseClosed bool
		handle       route
	}{
		{"POST /v1/columns/{name}/reports", true, s.handleReports},
		{"POST /v1/columns/{name}/advance", true, s.handleAdvance},
		{"POST /v1/columns/{name}/finalize", true, s.handleFinalize},
		{"POST /v1/columns/{name}/merge", true, s.handleMerge},
		{"GET /v1/columns/{name}/sketch", true, s.handleExport},
		{"GET /v1/columns/{name}/snapshot", true, s.handleSnapshot},
		{"GET /v1/columns", false, s.handleColumns},
		{"GET /v1/columns/{name}/fi", false, s.handleFI},
		{"GET /v1/columns/{name}", false, s.handleStatus},
		{"GET /v1/join", false, s.handleJoin},
		{"GET /v1/frequency", false, s.handleFrequency},
		{"GET /v1/stats", false, s.handleStats},
		{"GET /v1/healthz", false, func(*http.Request) (any, error) {
			return map[string]string{"status": "ok"}, nil
		}},
	} {
		handle := rt.handle
		if rt.refuseClosed {
			handle = func(r *http.Request) (any, error) {
				if err := s.refuseClosed(); err != nil {
					return nil, err
				}
				return rt.handle(r)
			}
		}
		mux.HandleFunc(rt.pattern, respond(handle))
	}
	// The exposition page streams as text; it is the one route that is
	// not a value.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// instrument sits outside admit so throttled requests are counted
	// too; it reads the route pattern the mux stamps on the request.
	return s.instrument(s.admit(mux))
}

// lookup resolves a name to its finalized column or, failing that, its
// collecting one; both nil means the name is unknown. Only a collecting
// column touches the lifecycle mutex, and then just for the map lookup.
// A finalize can move the column between the two lookups, so the
// registry is re-checked before the name is declared unknown.
func (s *Server) lookup(name string) (*finishedColumn, *pendingColumn) {
	if fin, ok := s.finished.get(name); ok {
		return fin, nil
	}
	s.mu.Lock()
	col := s.pending[name]
	s.mu.Unlock()
	if col != nil {
		return nil, col
	}
	fin, _ := s.finished.get(name)
	return fin, nil
}

// attrParam parses the ?attr= slot of an ingesting request and checks
// it against the kind: a matrix column spans (attr, attr+1), so its slot
// must leave room for the right attribute; a plus column is pinned to 0.
func (s *Server) attrParam(r *http.Request, ops kindOps) (int, error) {
	attr := 0
	if raw := r.URL.Query().Get("attr"); raw != "" {
		var err error
		if attr, err = strconv.Atoi(raw); err != nil {
			return 0, fmt.Errorf("invalid ?attr=%q", raw)
		}
	}
	return attr, ops.checkAttr(s, attr)
}

// handleReports is the one ingest route, for every column kind: decode,
// register, then the reports operation. The stream header's kind byte
// picks the kinds entry that reads the body and the column that folds
// it; nothing else differs.
func (s *Server) handleReports(r *http.Request) (any, error) {
	name := r.PathValue("name")
	// Read the stream header first: its kind byte decides which column
	// kind this request feeds. Then decode the whole stream before
	// anything is folded — a malformed or oversized stream rejects the
	// request atomically, so partially-applied garbage never reaches a
	// sketch.
	body := bufio.NewReader(r.Body)
	h, err := protocol.ReadHeader(body)
	if err != nil {
		return nil, statusError(http.StatusBadRequest, "decoding report stream: %v", err)
	}
	ops := kinds[h.Kind] // ReadHeader admits only the three kinds
	attr, err := s.attrParam(r, ops)
	if err != nil {
		return nil, statusError(http.StatusBadRequest, "%v", err)
	}
	batch, err := ops.decodeReports(s, name, body, h)
	if err != nil {
		return nil, err
	}
	// Everything the ack needs of the batch is read now: once folded, the
	// batch belongs to the pool.
	ingested, group := batch.count(), batch.group()
	col, err := s.register(name, h.Kind, attr, batch)
	if err != nil {
		return nil, err
	}
	total, err := s.reports(col, batch)
	if err != nil {
		return nil, err
	}
	resp := map[string]any{"column": name, "kind": h.Kind.String(), "ingested": ingested, "total": total}
	if group != "" {
		resp["group"] = group
	}
	return resp, nil
}

// maxAdvanceBody bounds the JSON body of POST .../advance: the largest
// frequent-item set the codecs carry at 32 bytes an item — 20 digits, a
// comma, and slack for the whitespace or one-item-per-line indentation
// an encoder may add — plus room for the other fields.
const maxAdvanceBody = 32*protocol.MaxPlusFI + 1024

// parseAdvance reads the advance operation's argument from the JSON
// body or — for the body-less self-computing flow — from ?domain= and
// ?theta=, and canonicalizes a coordinator-supplied FI.
func parseAdvance(r *http.Request) (advanceRequest, error) {
	var req advanceRequest
	if r.ContentLength != 0 {
		// Bound the body before decoding: the FI-count check below only
		// runs once the decoder has buffered the whole array. (No
		// ResponseWriter to hand MaxBytesReader: its connection-close
		// hint never reached the server through instrument's wrapper.)
		err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxAdvanceBody)).Decode(&req)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return req, statusError(http.StatusRequestEntityTooLarge, "advance request exceeds %d bytes", tooLarge.Limit)
		}
		if err != nil {
			return req, statusError(http.StatusBadRequest, "decoding advance request: %v", err)
		}
	}
	q := r.URL.Query()
	if raw := q.Get("domain"); raw != "" {
		d, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return req, statusError(http.StatusBadRequest, "invalid ?domain=%q", raw)
		}
		req.Domain = d
	}
	if raw := q.Get("theta"); raw != "" {
		th, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return req, statusError(http.StatusBadRequest, "invalid ?theta=%q", raw)
		}
		req.Theta = th
	}
	if req.Domain == 0 {
		return req, statusError(http.StatusBadRequest, "advance needs a positive domain (?domain= or a JSON body)")
	}
	if !(req.Theta > 0 && req.Theta < 1) {
		return req, statusError(http.StatusBadRequest, "advance needs a frequency threshold θ in (0,1), got %v", req.Theta)
	}
	if req.FI != nil {
		slices.Sort(req.FI)
		req.FI = slices.Compact(req.FI)
		if n := len(req.FI); n > 0 && req.FI[n-1] >= req.Domain {
			return req, statusError(http.StatusBadRequest, "frequent item %d is outside the domain %d", req.FI[n-1], req.Domain)
		}
		if len(req.FI) > protocol.MaxPlusFI {
			return req, statusError(http.StatusBadRequest, "frequent-item set of %d items exceeds the %d-item bound", len(req.FI), protocol.MaxPlusFI)
		}
	}
	return req, nil
}

// handleAdvance runs the advance operation on the named collecting
// column.
func (s *Server) handleAdvance(r *http.Request) (any, error) {
	name := r.PathValue("name")
	req, err := parseAdvance(r)
	if err != nil {
		return nil, err
	}
	col, err := s.collecting(name)
	if err != nil {
		return nil, err
	}
	frozen, err := s.advance(col, req)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"column": name, "advanced": true,
		"domain": req.Domain, "theta": req.Theta, "fi": explicitFI(frozen),
	}, nil
}

// handleFI broadcasts a plus column's frequent-item set: the frozen set
// once the column has advanced (or finalized), or — for a phase-1
// column queried with ?domain= and ?theta= — a live point-in-time
// proposal, which a federation coordinator unions across collectors
// before advancing them all with the same explicit set.
func (s *Server) handleFI(r *http.Request) (any, error) {
	name := r.PathValue("name")
	reply := func(domain uint64, theta float64, fi []uint64, advanced, finalized bool) (any, error) {
		return map[string]any{
			"column": name, "advanced": advanced, "finalized": finalized,
			"domain": domain, "theta": theta, "fi": explicitFI(fi),
		}, nil
	}
	fin, col := s.lookup(name)
	var kind protocol.Kind
	switch {
	case fin != nil:
		kind = fin.kind
	case col != nil:
		kind = col.kind
	default:
		return nil, apiErrorf(http.StatusNotFound, codeNotFound, name, "unknown column %q", name)
	}
	if kind != protocol.KindPlus {
		return nil, apiErrorf(http.StatusConflict, codeConflict, name, "column %q is a %s column; /fi applies to plus columns", name, kind.String())
	}
	if fin != nil {
		return reply(fin.plus.Domain, fin.plus.Theta, fin.plus.FI, true, true)
	}
	plus := col.state.(plusColumn)
	if domain, theta, fi, advanced := plus.AdvanceInfo(); advanced {
		return reply(domain, theta, fi, true, false)
	}
	q := r.URL.Query()
	rawD, rawT := q.Get("domain"), q.Get("theta")
	if rawD == "" || rawT == "" {
		return nil, statusError(http.StatusBadRequest,
			"column %q has not advanced; a live proposal needs ?domain= and ?theta=", name)
	}
	domain, err := strconv.ParseUint(rawD, 10, 64)
	if err != nil || domain == 0 {
		return nil, statusError(http.StatusBadRequest, "invalid ?domain=%q", rawD)
	}
	theta, err := strconv.ParseFloat(rawT, 64)
	if err != nil || !(theta > 0 && theta < 1) {
		return nil, statusError(http.StatusBadRequest, "invalid ?theta=%q (want a threshold in (0,1))", rawT)
	}
	fi, err := plus.ProposeFI(domain, theta)
	if err != nil {
		return nil, s.conflict(name, err)
	}
	return reply(domain, theta, fi, false, false)
}

func (s *Server) handleFinalize(r *http.Request) (any, error) {
	name := r.PathValue("name")
	col, err := s.collecting(name)
	if err != nil {
		return nil, err
	}
	// Finalize drains the column and restores its sketch; do it outside
	// the lock so ingestion into other columns proceeds meanwhile. A
	// concurrent finalize of the same column loses with ErrFinalized.
	fin, err := col.state.finalize()
	if lostToFinalize(err) {
		return nil, s.columnConflict(codeFinalized, name, "column %q is already finalized", name)
	}
	if errors.Is(err, ingest.ErrPlusNotAdvanced) {
		// The column is untouched (the phase check precedes the drain):
		// advance it, ingest phase 2, then finalize.
		return nil, s.conflict(name, err)
	}
	if err != nil {
		// The column is spent (finalized with an error); drop it so the
		// name does not stay wedged between "collecting" and "finalized".
		s.mu.Lock()
		delete(s.pending, name)
		s.mu.Unlock()
		return nil, apiErrorf(http.StatusInternalServerError, codeInternal, name, "finalizing column %q: %v", name, err)
	}
	// Persist the finalized sketch as final.snap before installing it:
	// an acknowledged finalize is durable. The store retires the
	// column's WAL after it returns, off this request. If persisting
	// fails the sketch still installs — it cannot be un-finalized — but
	// the request reports the failure; the WAL stays in place, so a
	// restart rebuilds the column collecting and an identical sketch is
	// one finalize away.
	fin.attr = col.attr
	var persistErr error
	if s.st != nil {
		persistErr = s.st.Finalize(name, col.attr, fin.snapshot())
	}
	// Retire the pending entry and publish the finalized column in one
	// critical section: a status or register request holding mu sees the
	// column in exactly one of the two maps, never neither.
	s.mu.Lock()
	delete(s.pending, name)
	s.finished.install(name, fin)
	s.mu.Unlock()
	if persistErr != nil {
		return nil, apiErrorf(http.StatusInternalServerError, codeInternal, name,
			"column %q finalized in memory, but persisting failed: %v", name, persistErr)
	}
	return map[string]any{"column": name, "kind": col.kind.String(), "reports": fin.n()}, nil
}

// handleStatus reports a column's kind, slot, lifecycle state and report
// count. lookup has released the lifecycle mutex before anything is
// read, so a slow status reader cannot stall ingestion.
func (s *Server) handleStatus(r *http.Request) (any, error) {
	name := r.PathValue("name")
	fin, col := s.lookup(name)
	switch {
	case fin != nil:
		return map[string]any{
			"column": name, "kind": fin.kind.String(), "attr": fin.attr,
			"state": "finalized", "reports": fin.n(),
		}, nil
	case col != nil:
		payload := map[string]any{
			"column": name, "kind": col.kind.String(), "attr": col.attr,
			"state": "collecting", "reports": col.state.N(),
		}
		if plus, ok := col.state.(plusColumn); ok {
			phase := 1
			if plus.Advanced() {
				phase = 2
			}
			payload["phase"] = phase
		}
		return payload, nil
	}
	return nil, apiErrorf(http.StatusNotFound, codeNotFound, name, "unknown column %q", name)
}

// handleExport serves a finalized join column's marshaled sketch.
func (s *Server) handleExport(r *http.Request) (any, error) {
	name := r.PathValue("name")
	cols, err := s.finalizedColumns(name)
	if err != nil {
		return nil, err
	}
	fin := cols[0]
	if fin.kind != protocol.KindJoin {
		return nil, apiErrorf(http.StatusConflict, codeConflict, name, "column %q is a %s column; export it via /snapshot", name, fin.kind.String())
	}
	data, err := fin.join.MarshalBinary()
	if err != nil {
		return nil, statusError(http.StatusInternalServerError, "encoding sketch: %v", err)
	}
	return blob{data: data}, nil
}

// handleSnapshot exports a column as a SNAP snapshot. A collecting
// column yields a point-in-time unfinalized (mergeable) snapshot of
// every request acknowledged so far, taken without consuming the
// column, so a federator can poll a live collector; a finalized column
// yields its finalized snapshot. The response carries
// X-Ldpjoin-Finalized so callers can tell the two apart without
// decoding.
func (s *Server) handleSnapshot(r *http.Request) (any, error) {
	name := r.PathValue("name")
	fin, col := s.lookup(name)
	var data []byte
	switch {
	case fin != nil:
		var err error
		if data, err = fin.snapshot().Encode(); err != nil {
			return nil, statusError(http.StatusInternalServerError, "encoding snapshot: %v", err)
		}
	case col != nil:
		// A concurrent finalize can retire the column between the lookup
		// and the copy; capture then reports ErrFinalized and the client
		// retries against the finalized sketch.
		// Capture under the operation lock: every mutating request holds
		// opMu across its WAL append and fold, so the export covers
		// exactly the acknowledged requests — an acked report is in the
		// next pull, and a federated merge of live pulls is
		// byte-identical to single-node ingestion.
		col.opMu.Lock()
		snap, err := col.state.capture()
		col.opMu.Unlock()
		if err == nil {
			data, err = snap.Encode()
		}
		if lostToFinalize(err) {
			return nil, apiErrorf(http.StatusConflict, codeFinalized, name, "column %q finalized while exporting; retry", name)
		}
		if err != nil {
			return nil, apiErrorf(http.StatusInternalServerError, codeInternal, name, "exporting column %q: %v", name, err)
		}
	default:
		return nil, apiErrorf(http.StatusNotFound, codeNotFound, name, "unknown column %q", name)
	}
	s.snapshots.bump(name)
	return blob{data: data, header: [2]string{"X-Ldpjoin-Finalized", strconv.FormatBool(fin != nil)}}, nil
}

// handleMerge folds a snapshot from another collector into the named
// column: an unfinalized snapshot through the merge operation into a
// collecting (or new) column, a finalized one as an import under a name
// with no local state — merging into or on top of finalized state is
// refused, because that cannot be exact. The column's kind comes from
// the snapshot's header and its attribute slot from the seed
// fingerprint.
func (s *Server) handleMerge(r *http.Request) (any, error) {
	name := r.PathValue("name")
	// Read the fixed-size header first: its kind picks the exact body
	// bound — a join snapshot is K·M cells, a matrix snapshot up to K·M²
	// entries (~1000× larger at defaults) — so a request is never buffered
	// beyond the size its declared kind justifies, and garbage bodies
	// are rejected after 60 bytes.
	header := make([]byte, protocol.SnapshotHeaderSize)
	if _, err := io.ReadFull(r.Body, header); err != nil {
		return nil, statusError(http.StatusBadRequest, "reading snapshot header: %v", err)
	}
	kind, err := protocol.PeekColumnKind(header)
	if err != nil {
		return nil, statusError(http.StatusBadRequest, "decoding snapshot: %v", err)
	}
	ops := kinds[kind]
	limit := int64(ops.snapshotBound(s))
	// A durable merge must fit one WAL record, and a snapshot has no
	// valid split. Refuse oversized configurations up front — before
	// buffering anything — with an actionable message instead of a 500
	// from the append layer after 100s of MiB of work.
	if s.st != nil && limit > protocol.MaxRecordPayload {
		return nil, apiErrorf(http.StatusConflict, codeConflict, name,
			"%s snapshots can encode to %d bytes under this configuration, above the %d-byte WAL record bound: durable %s merges need a smaller sketch width (or an in-memory server)",
			kind, limit, protocol.MaxRecordPayload, kind)
	}
	rest, err := io.ReadAll(io.LimitReader(r.Body, limit-int64(len(header))+1))
	if err != nil {
		return nil, statusError(http.StatusBadRequest, "reading snapshot body: %v", err)
	}
	data := append(header, rest...)
	if int64(len(data)) > limit {
		return nil, statusError(http.StatusRequestEntityTooLarge, "snapshot exceeds the %d-byte bound its kind has under this configuration", limit)
	}
	snap, err := protocol.DecodeColumnSnapshot(data)
	if err != nil {
		return nil, statusError(http.StatusBadRequest, "decoding snapshot: %v", err)
	}
	attr, err := ops.slot(s, snap)
	if err != nil {
		return nil, apiErrorf(http.StatusConflict, codeConflict, name, "%v", err)
	}

	total := snap.Reports()
	if snap.IsFinalized() {
		if err := s.importFinalized(name, attr, snap); err != nil {
			return nil, err
		}
	} else {
		// Same order as handleReports: register the column under the
		// closed/finalized checks, then the operation WALs the encoded
		// snapshot — the already-encoded body is exactly the canonical
		// record payload — before it can reach the column.
		col, err := s.register(name, kind, attr, nil)
		if err != nil {
			return nil, err
		}
		n, err := s.merge(col, snap, data)
		if err != nil {
			return nil, err
		}
		total = float64(n)
		s.merges.bump(name)
	}
	return map[string]any{
		"column": name, "kind": kind.String(), "merged": snap.Reports(), "total": total, "finalized": snap.IsFinalized(),
	}, nil
}

// importFinalized installs a finalized snapshot as a finalized column
// under a name with no local state, and persists it like a finalize.
func (s *Server) importFinalized(name string, attr int, snap protocol.ColumnSnapshot) error {
	fin, err := kinds[snap.ColumnKind()].restore(snap)
	if err != nil {
		return statusError(http.StatusBadRequest, "restoring snapshot: %v", err)
	}
	fin.attr = attr
	if err := s.installFresh(name, fin); err != nil {
		return err
	}
	s.merges.bump(name)
	// An import is terminal state: persist it like a finalize. As in
	// handleFinalize, a persist failure keeps the in-memory install (it
	// cannot be undone observably) and reports the error.
	if s.st != nil {
		if err := s.st.Finalize(name, attr, snap); err != nil {
			return apiErrorf(http.StatusInternalServerError, codeInternal, name,
				"column %q imported in memory, but persisting failed: %v", name, err)
		}
	}
	return nil
}

// installFresh publishes an imported finalized column if the name is
// free. Check and install share one lock acquisition: releasing the
// lock between the no-pending check and the install would let a
// concurrent reports request register the column in the gap — and the
// import would then shadow (and, durable, retire the WAL of)
// acknowledged reports. With the install atomic, the two requests
// serialize: whichever claims the name first wins, the other gets the
// conflict.
func (s *Server) installFresh(name string, fin *finishedColumn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errServerClosed
	}
	if _, done := s.finished.get(name); done {
		return apiErrorf(http.StatusConflict, codeFinalized, name, "column %q is already finalized; merging finalized snapshots is not exact", name)
	}
	if _, collecting := s.pending[name]; collecting {
		return apiErrorf(http.StatusConflict, codeConflict, name, "column %q is collecting; a finalized snapshot can only be imported under a fresh name", name)
	}
	s.finished.install(name, fin)
	return nil
}

// handleJoin serves the three join modes of GET /v1/join: ?path= is the
// chain planner, ?ab= the plain-vs-plus comparison, ?left=&right= a
// pairwise estimate — of two plus columns through the two-phase
// estimator, of anything else through the pair query and its kind rules.
func (s *Server) handleJoin(r *http.Request) (any, error) {
	q := r.URL.Query()
	if path := q.Get("path"); path != "" {
		var names []string
		for _, part := range strings.Split(path, ",") {
			if part = strings.TrimSpace(part); part != "" {
				names = append(names, part)
			}
		}
		return s.joinChain(names)
	}
	if ab := q.Get("ab"); ab != "" {
		return s.handleABJoin(ab, q.Get("truth"))
	}
	left, right := q.Get("left"), q.Get("right")
	if left == "" || right == "" {
		return nil, statusError(http.StatusBadRequest, "join needs ?left= and ?right= columns, a ?path= chain, or an ?ab= comparison")
	}
	plus := func(name string) bool {
		fin, ok := s.finished.get(name)
		return ok && fin.kind == protocol.KindPlus
	}
	if plus(left) && plus(right) {
		return s.joinPlus(left, right)
	}
	return s.joinPair(left, right)
}

// handleABJoin serves the A/B accuracy comparison: ?ab= names four
// finalized columns — plainLeft,plainRight,plusLeft,plusRight — built
// from the same underlying population once as plain LDPJoinSketch state
// and once as two-phase plus state. The response carries both estimates
// and their relative difference; with ?truth= (the exact join size, for
// benchmark workloads that know it) it also reports each estimate's
// relative error, which is the number the paper's §V comparison plots.
func (s *Server) handleABJoin(ab, truthRaw string) (any, error) {
	names := strings.Split(ab, ",")
	if len(names) != 4 {
		return nil, statusError(http.StatusBadRequest, "?ab= needs exactly 4 columns: plainLeft,plainRight,plusLeft,plusRight")
	}
	for i := range names {
		if names[i] = strings.TrimSpace(names[i]); names[i] == "" {
			return nil, statusError(http.StatusBadRequest, "?ab= column %d is empty", i)
		}
	}
	plain, plus, err := s.joinAB(names[0], names[1], names[2], names[3])
	if err != nil {
		return nil, err
	}
	resp := map[string]any{
		"plain": map[string]any{"left": plain.Left, "right": plain.Right, "estimate": plain.Estimate},
		"plus": map[string]any{
			"left": plus.Left, "right": plus.Right, "estimate": plus.Estimate,
			"lowEstimate": plus.LowEstimate, "highEstimate": plus.HighEstimate,
		},
	}
	if plain.Estimate != 0 {
		resp["relativeDelta"] = (plus.Estimate - plain.Estimate) / plain.Estimate
	}
	if truthRaw != "" {
		truth, err := strconv.ParseFloat(truthRaw, 64)
		if err != nil || truth <= 0 {
			return nil, statusError(http.StatusBadRequest, "invalid ?truth=%q (want a positive join size)", truthRaw)
		}
		resp["truth"] = truth
		resp["plainRelativeError"] = math.Abs(plain.Estimate-truth) / truth
		resp["plusRelativeError"] = math.Abs(plus.Estimate-truth) / truth
	}
	return resp, nil
}

func (s *Server) handleFrequency(r *http.Request) (any, error) {
	name := r.URL.Query().Get("column")
	value, err := strconv.ParseUint(r.URL.Query().Get("value"), 10, 64)
	if name == "" || err != nil {
		return nil, statusError(http.StatusBadRequest, "frequency needs ?column= and a numeric ?value=")
	}
	return s.frequency(name, value)
}

// handleColumns lists every column the server knows — collecting and
// finalized — with its lifecycle state and the privacy spend its
// reports represent (each accepted report costs its contributor ε, so
// reports × ε is the column's total privacy expenditure). It stays
// readable on a closed server, like /v1/status: listing columns is how
// an operator inspects a draining node.
func (s *Server) handleColumns(*http.Request) (any, error) {
	type columnInfo struct {
		Name         string  `json:"name"`
		Kind         string  `json:"kind"`
		State        string  `json:"state"`
		Attr         int     `json:"attr"`
		Reports      float64 `json:"reports"`
		EpsilonSpent float64 `json:"epsilonSpent"`
	}
	// Snapshot both maps in one critical section so a column mid-finalize
	// appears exactly once; the reads themselves happen off-lock.
	s.mu.Lock()
	pending := make(map[string]*pendingColumn, len(s.pending))
	for name, col := range s.pending {
		pending[name] = col
	}
	view := s.finished.view()
	s.mu.Unlock()
	list := make([]columnInfo, 0, len(pending)+len(view))
	for name, col := range pending {
		n := float64(col.state.N())
		list = append(list, columnInfo{
			Name: name, Kind: col.kind.String(), State: "collecting",
			Attr: col.attr, Reports: n, EpsilonSpent: n * s.params.Epsilon,
		})
	}
	for name, fin := range view {
		n := fin.n()
		list = append(list, columnInfo{
			Name: name, Kind: fin.kind.String(), State: "finalized",
			Attr: fin.attr, Reports: n, EpsilonSpent: n * s.params.Epsilon,
		})
	}
	slices.SortFunc(list, func(a, b columnInfo) int { return strings.Compare(a.Name, b.Name) })
	return map[string]any{"columns": list, "count": len(list)}, nil
}

// handleStats assembles the counters without ever writing to the
// network while holding a lock: the finished count is a lock-free
// registry load, the cache and federation counters are atomics, and the
// lifecycle mutex is taken only long enough to count the pending map —
// a stalled /v1/stats reader can no longer freeze ingestion, finalize,
// or queries behind a held mutex.
func (s *Server) handleStats(*http.Request) (any, error) {
	// Count both maps in one critical section: registry installs happen
	// under mu, so the pair cannot disagree — a column mid-finalize is
	// never counted as both collecting and finalized. The view itself is
	// immutable, so only the pointer load needs the lock.
	s.mu.Lock()
	collecting := len(s.pending)
	finalized := len(s.finished.view())
	s.mu.Unlock()
	// Per-column federation counters: every column that has ever served a
	// snapshot export or accepted a merge gets an entry.
	columns := make(map[string]map[string]int64)
	counters := func(name string) map[string]int64 {
		c, ok := columns[name]
		if !ok {
			c = map[string]int64{"snapshots": 0, "merges": 0}
			columns[name] = c
		}
		return c
	}
	s.snapshots.each(func(name string, n int64) { counters(name)["snapshots"] = n })
	s.merges.each(func(name string, n int64) { counters(name)["merges"] = n })
	cs := s.cache.stats()
	stats := map[string]any{
		"collecting": collecting,
		"finalized":  finalized,
		"queryCache": map[string]any{
			"size":        cs.size,
			"capacity":    cs.capacity,
			"cacheShards": cs.shards,
			"hits":        cs.hits,
			"misses":      cs.misses,
			"evictions":   cs.evictions,
			"coalesced":   cs.coalesced,
		},
		"planner": map[string]any{
			"chainValidations": s.chainValidations.Load(),
		},
		"attributes": len(s.fams),
		"columns":    columns,
	}
	if s.tenants != nil {
		tenants := make(map[string]any)
		for _, t := range s.tenants.snapshot() {
			tenants[t.name] = map[string]any{
				"requests":  t.requests,
				"throttled": t.throttled,
			}
		}
		stats["tenants"] = map[string]any{
			"rate":      s.tenants.limits.rate,
			"burst":     s.tenants.limits.burst,
			"perTenant": tenants,
		}
	}
	if s.st != nil {
		ss := s.st.Stats()
		stats["durability"] = map[string]any{
			"walAppends":             ss.Appends,
			"walBytes":               ss.Bytes,
			"pendingWALBytes":        ss.PendingWALBytes,
			"checkpoints":            ss.Checkpoints,
			"backgroundCheckpoints":  ss.BackgroundCheckpoints,
			"checkpointErrors":       ss.CheckpointErrors,
			"lastCheckpointUnixNano": ss.LastCheckpointUnixNano,
			"lastCheckpointNanos":    ss.LastCheckpointNanos,
			"finalized":              ss.Finalized,
			"recovered": map[string]any{
				"columns":          s.recovered.Columns,
				"finalizedColumns": s.recovered.FinalizedColumns,
				"reports":          s.recovered.Reports,
				"merges":           s.recovered.Merges,
				"checkpoints":      s.recovered.Checkpoints,
				"truncatedTails":   s.recovered.TruncatedTails,
			},
		}
	}
	return stats, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
