package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Prometheus text exposition over the server's existing atomic counters
// plus per-route latency histograms — hand-rolled (the container bakes
// in no client library, and the format is a page of text/plain anyway).
// GET /metrics renders everything in one pass; nothing here takes the
// lifecycle mutex for longer than /v1/stats already does.

// latencyBuckets are the request-duration histogram bounds in seconds:
// log-spaced from 1ms (a cache-hit query) to 10s (a report stream
// blocked on engine backpressure).
var latencyBuckets = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// latencyHist is one route's cumulative request-duration histogram:
// counts[i] observations at or under latencyBuckets[i], plus the +Inf
// overflow, a nanosecond sum, and the total count — exactly the
// _bucket/_sum/_count triple the exposition format wants.
type latencyHist struct {
	counts [len(latencyBuckets) + 1]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	n      atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], secs)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// routeMetrics is the per-route slot of the request middleware: the
// latency histogram and a per-status-code counter.
type routeMetrics struct {
	hist  latencyHist
	codes sync.Map // status code (int) -> *atomic.Int64
}

func (m *routeMetrics) bumpCode(code int) {
	v, ok := m.codes.Load(code)
	if !ok {
		v, _ = m.codes.LoadOrStore(code, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
}

// httpMetrics holds every route's slot; routes register on first hit.
type httpMetrics struct {
	routes sync.Map // route pattern (string) -> *routeMetrics
}

func (m *httpMetrics) route(pattern string) *routeMetrics {
	v, ok := m.routes.Load(pattern)
	if !ok {
		v, _ = m.routes.LoadOrStore(pattern, &routeMetrics{})
	}
	return v.(*routeMetrics)
}

// statusWriter captures the status code a handler writes, so the
// middleware can label the request counter with it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps the mux with per-route request accounting. The route
// label is the mux pattern, not the raw URL — ServeMux stores the
// matched pattern on the request itself, so reading r.Pattern after the
// inner handler returns yields "GET /v1/columns/{name}/reports" instead
// of one label per column name (an unbounded label set would be a
// cardinality leak). Unmatched requests share one "unmatched" slot.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		rm := s.metrics.route(route)
		rm.hist.observe(time.Since(start))
		rm.bumpCode(sw.code)
	})
}

// promWriter accumulates one exposition page. Families are written
// header-first (# HELP / # TYPE) followed by their samples.
type promWriter struct {
	b strings.Builder
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote, and newline. Column and tenant names are caller-chosen
// bytes, so this is load-bearing, not pedantry.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample line; labels alternate key, value.
func (p *promWriter) sample(name string, value float64, labels ...string) {
	p.b.WriteString(name)
	if len(labels) > 0 {
		p.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(&p.b, `%s="%s"`, labels[i], escapeLabel(labels[i+1]))
		}
		p.b.WriteByte('}')
	}
	// %g renders integers without a decimal point and +Inf-safe floats;
	// NaN never reaches here (ratios guard their denominators).
	fmt.Fprintf(&p.b, " %g\n", value)
}

// handleMetrics renders the exposition page. It stays readable on a
// closed server — scraping through a shutdown is exactly when an
// operator wants the last numbers.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	p := &promWriter{}

	p.family("ldpjoin_up", "Whether the server is serving (0 after shutdown).", "gauge")
	up := 1.0
	if s.closed.Load() {
		up = 0
	}
	p.sample("ldpjoin_up", up)

	// HTTP request accounting: one counter family labeled by route and
	// status code, one histogram family by route.
	p.family("ldpjoin_http_requests_total", "HTTP requests served, by route pattern and status code.", "counter")
	type routeSlot struct {
		route string
		rm    *routeMetrics
	}
	var slots []routeSlot
	s.metrics.routes.Range(func(k, v any) bool {
		slots = append(slots, routeSlot{k.(string), v.(*routeMetrics)})
		return true
	})
	sort.Slice(slots, func(i, j int) bool { return slots[i].route < slots[j].route })
	for _, sl := range slots {
		type codeCount struct {
			code int
			n    int64
		}
		var codes []codeCount
		sl.rm.codes.Range(func(k, v any) bool {
			codes = append(codes, codeCount{k.(int), v.(*atomic.Int64).Load()})
			return true
		})
		sort.Slice(codes, func(i, j int) bool { return codes[i].code < codes[j].code })
		for _, c := range codes {
			p.sample("ldpjoin_http_requests_total", float64(c.n),
				"route", sl.route, "code", fmt.Sprintf("%d", c.code))
		}
	}
	p.family("ldpjoin_http_request_duration_seconds", "HTTP request latency, by route pattern.", "histogram")
	for _, sl := range slots {
		var cum int64
		for i, bound := range latencyBuckets {
			cum += sl.rm.hist.counts[i].Load()
			p.sample("ldpjoin_http_request_duration_seconds_bucket", float64(cum),
				"route", sl.route, "le", fmt.Sprintf("%g", bound))
		}
		cum += sl.rm.hist.counts[len(latencyBuckets)].Load()
		p.sample("ldpjoin_http_request_duration_seconds_bucket", float64(cum),
			"route", sl.route, "le", "+Inf")
		p.sample("ldpjoin_http_request_duration_seconds_sum",
			time.Duration(sl.rm.hist.sum.Load()).Seconds(), "route", sl.route)
		p.sample("ldpjoin_http_request_duration_seconds_count", float64(sl.rm.hist.n.Load()),
			"route", sl.route)
	}

	// Column population by lifecycle state.
	s.mu.Lock()
	collecting := len(s.pending)
	finalized := len(s.finished.view())
	s.mu.Unlock()
	p.family("ldpjoin_columns", "Columns by lifecycle state.", "gauge")
	p.sample("ldpjoin_columns", float64(collecting), "state", "collecting")
	p.sample("ldpjoin_columns", float64(finalized), "state", "finalized")

	// Query cache, including the ratio the dashboards alert on.
	cs := s.cache.stats()
	p.family("ldpjoin_query_cache_hits_total", "Query cache hits.", "counter")
	p.sample("ldpjoin_query_cache_hits_total", float64(cs.hits))
	p.family("ldpjoin_query_cache_misses_total", "Query cache misses.", "counter")
	p.sample("ldpjoin_query_cache_misses_total", float64(cs.misses))
	p.family("ldpjoin_query_cache_evictions_total", "Query cache evictions.", "counter")
	p.sample("ldpjoin_query_cache_evictions_total", float64(cs.evictions))
	p.family("ldpjoin_query_cache_coalesced_total", "Query computes shared via singleflight.", "counter")
	p.sample("ldpjoin_query_cache_coalesced_total", float64(cs.coalesced))
	p.family("ldpjoin_query_cache_size", "Live query cache entries.", "gauge")
	p.sample("ldpjoin_query_cache_size", float64(cs.size))
	p.family("ldpjoin_query_cache_hit_ratio", "Hits over lookups since start (0 before the first lookup).", "gauge")
	ratio := 0.0
	if total := cs.hits + cs.misses; total > 0 {
		ratio = float64(cs.hits) / float64(total)
	}
	p.sample("ldpjoin_query_cache_hit_ratio", ratio)

	p.family("ldpjoin_chain_validations_total", "Chain planner runs (memoized chain queries skip it).", "counter")
	p.sample("ldpjoin_chain_validations_total", float64(s.chainValidations.Load()))

	// Per-column federation counters — bounded by the column population,
	// which the operator controls, so the label set is safe.
	p.family("ldpjoin_snapshot_exports_total", "Snapshot exports, by column.", "counter")
	eachSorted(&s.snapshots, func(name string, n int64) {
		p.sample("ldpjoin_snapshot_exports_total", float64(n), "column", name)
	})
	p.family("ldpjoin_merges_total", "Snapshot merges accepted, by column.", "counter")
	eachSorted(&s.merges, func(name string, n int64) {
		p.sample("ldpjoin_merges_total", float64(n), "column", name)
	})

	// Durability: WAL volume and the background checkpointer's health.
	if s.st != nil {
		ss := s.st.Stats()
		p.family("ldpjoin_wal_appends_total", "Acknowledged WAL appends.", "counter")
		p.sample("ldpjoin_wal_appends_total", float64(ss.Appends))
		p.family("ldpjoin_wal_bytes_total", "Framed WAL bytes written.", "counter")
		p.sample("ldpjoin_wal_bytes_total", float64(ss.Bytes))
		p.family("ldpjoin_wal_pending_bytes", "WAL bytes not yet covered by a checkpoint.", "gauge")
		p.sample("ldpjoin_wal_pending_bytes", float64(ss.PendingWALBytes))
		p.family("ldpjoin_checkpoints_total", "Checkpoints persisted (background + shutdown).", "counter")
		p.sample("ldpjoin_checkpoints_total", float64(ss.Checkpoints))
		p.family("ldpjoin_background_checkpoints_total", "Checkpoints cut while ingest continued.", "counter")
		p.sample("ldpjoin_background_checkpoints_total", float64(ss.BackgroundCheckpoints))
		p.family("ldpjoin_checkpoint_errors_total", "Failed background checkpoint attempts.", "counter")
		p.sample("ldpjoin_checkpoint_errors_total", float64(ss.CheckpointErrors))
		p.family("ldpjoin_checkpoint_age_seconds", "Seconds since the newest checkpoint persisted (-1 = never).", "gauge")
		age := -1.0
		if ss.LastCheckpointUnixNano > 0 {
			age = time.Since(time.Unix(0, ss.LastCheckpointUnixNano)).Seconds()
		}
		p.sample("ldpjoin_checkpoint_age_seconds", age)
		p.family("ldpjoin_checkpoint_duration_seconds", "Duration of the newest background checkpoint.", "gauge")
		p.sample("ldpjoin_checkpoint_duration_seconds", time.Duration(ss.LastCheckpointNanos).Seconds())
		p.family("ldpjoin_columns_finalized_total", "Finalize and finalized-import persists.", "counter")
		p.sample("ldpjoin_columns_finalized_total", float64(ss.Finalized))

		// What startup recovery did, fixed for the life of the process:
		// seconds over reports is the replay speed of this deployment.
		p.family("ldpjoin_recovery_seconds", "Duration of the startup replay of the data directory.", "gauge")
		p.sample("ldpjoin_recovery_seconds", s.recoveryTime.Seconds())
		p.family("ldpjoin_recovery_reports_total", "Reports replayed from WAL records at startup.", "counter")
		p.sample("ldpjoin_recovery_reports_total", float64(s.recovered.Reports))
		p.family("ldpjoin_recovery_checkpoints_total", "Checkpoint snapshots restored at startup.", "counter")
		p.sample("ldpjoin_recovery_checkpoints_total", float64(s.recovered.Checkpoints))
		p.family("ldpjoin_recovery_truncated_tails_total", "WAL segments whose torn tail startup recovery cut.", "counter")
		p.sample("ldpjoin_recovery_truncated_tails_total", float64(s.recovered.TruncatedTails))
	}

	// Tenant admission: requests and throttles.
	if s.tenants != nil {
		p.family("ldpjoin_tenant_requests_total", "Admitted requests, by tenant.", "counter")
		p.family("ldpjoin_tenant_throttled_total", "Requests refused by the tenant's rate limit.", "counter")
		for _, t := range s.tenants.snapshot() {
			p.sample("ldpjoin_tenant_requests_total", float64(t.requests), "tenant", t.name)
			p.sample("ldpjoin_tenant_throttled_total", float64(t.throttled), "tenant", t.name)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(p.b.String()))
}

// eachSorted iterates a counterMap in name order, so the exposition
// page is deterministic (scrape diffs and tests both want that).
func eachSorted(c *counterMap, f func(name string, n int64)) {
	type kv struct {
		name string
		n    int64
	}
	var all []kv
	c.each(func(name string, n int64) { all = append(all, kv{name, n}) })
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	for _, e := range all {
		f(e.name, e.n)
	}
}
