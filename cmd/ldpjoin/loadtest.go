// The loadtest mode hammers a live ldpjoind with a configurable query
// mix and reports throughput and latency percentiles — the measuring
// stick for the server's lock-free read path. It first seeds (unless
// told not to) a small family of columns through the public API —
// two attribute-0 join columns, a matrix column spanning (0, 1), and
// an attribute-1 join column — finalizes them, then runs -concurrency
// workers for -duration issuing requests drawn from the -mix weights:
//
//	join    GET /v1/join?left=…&right=…     (memoized pairwise estimate)
//	chain   GET /v1/join?path=…,…,…         (memoized planner estimate)
//	freq    GET /v1/frequency?…             (rotating values: hits+misses)
//	status  GET /v1/columns/{name}
//	stats   GET /v1/stats
//	ingest  POST /v1/columns/{prefix}_ing/reports (small report batches
//	        into a never-finalized column — the soak op that keeps the
//	        WAL growing so a background checkpointer has work to do)
//
// Every worker records per-request latency; the summary prints counts,
// errors, p50/p90/p99/max per op and overall QPS, and -out writes the
// same numbers as JSON for CI artifacts. -tenant sends every request
// with an Authorization bearer token, so a rate-limited server can be
// soaked as one tenant. Columns survive the run
// (finalized sketches are immutable), so repeated invocations against
// the same server skip seeding and measure steady state.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// ltOp is one weighted operation of the query mix.
type ltOp struct {
	name   string
	weight int
	target func(rng *rand.Rand) string
	body   []byte // non-nil: POST this payload instead of GET
}

// ltSample is one latency observation.
type ltSample struct {
	op      int
	latency time.Duration
}

// ltReservoirSize bounds how many latency samples each worker keeps:
// beyond it, reservoir sampling (algorithm R) keeps a uniform subset,
// so an hour-long run against a 100k req/s server costs megabytes, not
// gigabytes, and the generator does not perturb the latencies it
// measures. Counts and errors are exact regardless.
const ltReservoirSize = 1 << 16

// ltWorker is one worker's tallies: exact per-op counts, errors, and
// worst-case latencies, plus the bounded reservoir for percentiles. The
// max is tracked outside the reservoir because it is exactly the event
// subsampling would lose — a single multi-second stall in an hour-long
// run has almost no chance of surviving a uniform subsample.
type ltWorker struct {
	counts []int64
	errs   []int64
	maxes  []time.Duration
	seen   int64
	res    []ltSample
}

// observe records one request outcome.
func (w *ltWorker) observe(op int, latency time.Duration, ok bool, rng *rand.Rand) {
	w.counts[op]++
	if !ok {
		w.errs[op]++
	}
	if latency > w.maxes[op] {
		w.maxes[op] = latency
	}
	w.seen++
	if len(w.res) < ltReservoirSize {
		w.res = append(w.res, ltSample{op: op, latency: latency})
		return
	}
	if j := rng.Int63n(w.seen); j < ltReservoirSize {
		w.res[j] = ltSample{op: op, latency: latency}
	}
}

func runLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: ldpjoin loadtest -server URL [flags]

Seed a family of columns on a running ldpjoind (skipped for columns that
are already finalized), then hammer its query API with a weighted mix of
concurrent requests and report QPS and latency percentiles. The
protocol configuration (-k, -m, -eps, -seed) must match the server's.

`)
		fs.PrintDefaults()
	}
	server := fs.String("server", "", "base URL of the ldpjoind under test (e.g. http://localhost:8080)")
	concurrency := fs.Int("concurrency", 16, "concurrent workers")
	duration := fs.Duration("duration", 10*time.Second, "how long to drive the mix")
	mixFlag := fs.String("mix", "join=6,chain=2,freq=2,status=1,stats=1", "weighted query mix (ops: join, chain, freq, status, stats, ingest; weight 0 drops an op)")
	reports := fs.Int("reports", 20000, "reports ingested per seeded column (0 skips seeding entirely)")
	prefix := fs.String("prefix", "lt", "seeded column name prefix")
	values := fs.Int("values", 1024, "distinct ?value= domain for freq queries (mixes cache hits and misses)")
	k := fs.Int("k", 18, "sketch depth (rows)")
	m := fs.Int("m", 1024, "sketch width (columns, power of two)")
	eps := fs.Float64("eps", 4, "privacy budget epsilon")
	seed := fs.Int64("seed", 1, "public hash seed (shared with the server)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	tenant := fs.String("tenant", "", "send every request as this tenant (Authorization: Bearer <tenant>)")
	out := fs.String("out", "", "write the run summary as JSON to this file")
	ingestBatch := fs.Int("ingest-batch", 64, "reports per ingest-op batch (the ingest mix op)")
	_ = fs.Parse(args)

	if *server == "" {
		fs.Usage()
		return fmt.Errorf("loadtest needs -server")
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be at least 1, got %d", *concurrency)
	}
	if *values < 1 {
		return fmt.Errorf("-values must be at least 1, got %d", *values)
	}
	base := strings.TrimSuffix(*server, "/")
	params := core.Params{K: *k, M: *m, Epsilon: *eps}
	if err := params.Validate(); err != nil {
		return err
	}

	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        2 * *concurrency,
		MaxIdleConnsPerHost: 2 * *concurrency,
	}
	if *tenant != "" {
		rt = &bearerTransport{next: rt, token: *tenant}
	}
	client := &http.Client{Timeout: *timeout, Transport: rt}

	names := map[string]string{
		"a":   *prefix + "_a",   // join, attr 0
		"b":   *prefix + "_b",   // join, attr 0
		"ab":  *prefix + "_ab",  // matrix, attrs (0, 1)
		"c":   *prefix + "_c",   // join, attr 1
		"ing": *prefix + "_ing", // join, attr 0, never finalized (ingest op)
	}
	if *reports > 0 {
		if err := seedColumns(client, base, params, *seed, names, *reports); err != nil {
			return err
		}
	}

	ingestBody, err := encodeIngestBatch(params, *seed, *ingestBatch)
	if err != nil {
		return err
	}
	ops, err := buildMix(*mixFlag, names, *values, ingestBody)
	if err != nil {
		return err
	}
	fmt.Printf("loadtest: %d workers against %s for %s (mix %s)\n", *concurrency, base, *duration, *mixFlag)

	workers, elapsed := driveMix(client, base, ops, *concurrency, *duration)
	sum := printSummary(ops, workers, elapsed)
	sum.Server, sum.Concurrency, sum.Mix = base, *concurrency, *mixFlag
	sum.Tenant, sum.Duration = *tenant, elapsed.String()
	if *out != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("summary written to %s\n", *out)
	}
	return nil
}

// bearerTransport stamps the loadtest's tenant identity on every
// request, so per-tenant admission on the server attributes the whole
// run to one tenant.
type bearerTransport struct {
	next  http.RoundTripper
	token string
}

func (t *bearerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set("Authorization", "Bearer "+t.token)
	return t.next.RoundTrip(r)
}

// encodeIngestBatch pre-encodes the report batch the ingest op posts.
// Every ingest request reuses the same perturbed batch: the server
// folds it like any other, and encoding once keeps the generator from
// spending its CPU on perturbation instead of load.
func encodeIngestBatch(p core.Params, seed int64, batch int) ([]byte, error) {
	if batch < 1 {
		return nil, fmt.Errorf("-ingest-batch must be at least 1, got %d", batch)
	}
	fam := hashing.NewFamily(hashing.AttributeSeed(seed, 0), p.K, p.M)
	rng := rand.New(rand.NewSource(seed + 7))
	var buf bytes.Buffer
	w, err := protocol.NewReportWriter(&buf, p)
	if err != nil {
		return nil, err
	}
	for i := 0; i < batch; i++ {
		if err := w.Write(core.Perturb(uint64(rng.Intn(4096)), p, fam, rng)); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildMix parses "join=6,chain=2,…" into the weighted op set.
func buildMix(mix string, names map[string]string, values int, ingestBody []byte) ([]ltOp, error) {
	bodies := map[string][]byte{"ingest": ingestBody}
	targets := map[string]func(rng *rand.Rand) string{
		"ingest": func(*rand.Rand) string {
			return "/v1/columns/" + url.PathEscape(names["ing"]) + "/reports"
		},
		"join": func(*rand.Rand) string {
			return "/v1/join?left=" + url.QueryEscape(names["a"]) + "&right=" + url.QueryEscape(names["b"])
		},
		"chain": func(*rand.Rand) string {
			return "/v1/join?path=" + url.QueryEscape(names["a"]+","+names["ab"]+","+names["c"])
		},
		"freq": func(rng *rand.Rand) string {
			return "/v1/frequency?column=" + url.QueryEscape(names["a"]) + "&value=" + strconv.Itoa(rng.Intn(values))
		},
		"status": func(*rand.Rand) string { return "/v1/columns/" + url.PathEscape(names["a"]) },
		"stats":  func(*rand.Rand) string { return "/v1/stats" },
	}
	var ops []ltOp
	index := make(map[string]int)
	total := 0
	for _, part := range splitNonEmpty(mix) {
		name, weightStr, found := strings.Cut(part, "=")
		if !found {
			return nil, fmt.Errorf("-mix entry %q is not op=weight", part)
		}
		name = strings.TrimSpace(name)
		target, ok := targets[name]
		if !ok {
			return nil, fmt.Errorf("-mix op %q unknown (want join, chain, freq, status, stats, ingest)", name)
		}
		weight, err := strconv.Atoi(strings.TrimSpace(weightStr))
		if err != nil || weight < 0 {
			return nil, fmt.Errorf("-mix weight %q is not a non-negative integer", weightStr)
		}
		if weight == 0 {
			continue
		}
		total += weight
		// A repeated op name folds its weight into the existing entry, so
		// the summary never fragments one op across rows.
		if i, seen := index[name]; seen {
			ops[i].weight += weight
			continue
		}
		index[name] = len(ops)
		ops = append(ops, ltOp{name: name, weight: weight, target: target, body: bodies[name]})
	}
	if total == 0 {
		return nil, fmt.Errorf("-mix %q selects nothing", mix)
	}
	return ops, nil
}

// pickOp draws an op index by weight; total is the precomputed weight
// sum (constant for the run, so the hot loop does not re-derive it).
func pickOp(ops []ltOp, total int, rng *rand.Rand) int {
	n := rng.Intn(total)
	for i, op := range ops {
		if n < op.weight {
			return i
		}
		n -= op.weight
	}
	return len(ops) - 1
}

// driveMix runs the workers and reports the merged tallies plus the
// actual wall time they span — each worker's final in-flight request
// can finish past the nominal deadline, so throughput is computed over
// the measured window, not the requested one.
func driveMix(client *http.Client, base string, ops []ltOp, concurrency int, duration time.Duration) ([]ltWorker, time.Duration) {
	begin := time.Now()
	deadline := begin.Add(duration)
	totalWeight := 0
	for _, op := range ops {
		totalWeight += op.weight
	}
	workers := make([]ltWorker, concurrency)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		workers[w] = ltWorker{
			counts: make([]int64, len(ops)),
			errs:   make([]int64, len(ops)),
			maxes:  make([]time.Duration, len(ops)),
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for time.Now().Before(deadline) {
				op := pickOp(ops, totalWeight, rng)
				start := time.Now()
				ok := doReq(client, base+ops[op].target(rng), ops[op].body)
				workers[w].observe(op, time.Since(start), ok, rng)
			}
		}(w)
	}
	wg.Wait()
	return workers, time.Since(begin)
}

// doReq issues one request — GET, or POST when the op carries a
// payload — draining the body so the connection is reused; ok means
// HTTP 200.
func doReq(client *http.Client, url string, body []byte) bool {
	var resp *http.Response
	var err error
	if body != nil {
		resp, err = client.Post(url, "application/octet-stream", bytes.NewReader(body))
	} else {
		resp, err = client.Get(url)
	}
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// ltOpSummary and ltSummary are the machine-readable run summary -out
// writes — the artifact a CI soak job uploads next to BENCH_*.json.
type ltOpSummary struct {
	Op     string  `json:"op"`
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

type ltSummary struct {
	Server      string        `json:"server"`
	Tenant      string        `json:"tenant,omitempty"`
	Concurrency int           `json:"concurrency"`
	Duration    string        `json:"duration"`
	Mix         string        `json:"mix"`
	Total       int64         `json:"totalRequests"`
	Errors      int64         `json:"totalErrors"`
	QPS         float64       `json:"qps"`
	Ops         []ltOpSummary `json:"ops"`
}

// printSummary prints per-op exact counts and errors, latency
// percentiles from the merged reservoirs, and the overall throughput
// over the measured elapsed window, returning the same numbers for
// -out.
func printSummary(ops []ltOp, workers []ltWorker, elapsed time.Duration) ltSummary {
	fmt.Printf("%-8s %10s %8s %10s %10s %10s %10s\n", "op", "count", "errors", "p50", "p90", "p99", "max")
	sum := ltSummary{}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for i, op := range ops {
		var lats []time.Duration
		var count, errs int64
		var max time.Duration
		for _, w := range workers {
			count += w.counts[i]
			errs += w.errs[i]
			if w.maxes[i] > max {
				max = w.maxes[i]
			}
			for _, s := range w.res {
				if s.op == i {
					lats = append(lats, s.latency)
				}
			}
		}
		sum.Total += count
		sum.Errors += errs
		row := ltOpSummary{Op: op.name, Count: count, Errors: errs, MaxMs: ms(max)}
		if len(lats) == 0 {
			if count > 0 {
				// No reservoir survivors for this op (long run, low
				// weight) — the exactly-tracked max still prints, since a
				// lost stall is precisely what it exists to surface.
				fmt.Printf("%-8s %10d %8d %10s %10s %10s %10s\n", op.name, count, errs, "-", "-", "-", max)
			} else {
				fmt.Printf("%-8s %10d %8d\n", op.name, count, errs)
			}
			sum.Ops = append(sum.Ops, row)
			continue
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		p50, p90, p99 := percentile(lats, 0.50), percentile(lats, 0.90), percentile(lats, 0.99)
		row.P50Ms, row.P90Ms, row.P99Ms = ms(p50), ms(p90), ms(p99)
		sum.Ops = append(sum.Ops, row)
		fmt.Printf("%-8s %10d %8d %10s %10s %10s %10s\n", op.name, count, errs, p50, p90, p99, max)
	}
	sum.QPS = float64(sum.Total) / elapsed.Seconds()
	fmt.Printf("total: %d requests in %s — %.1f req/s\n", sum.Total, elapsed.Round(time.Millisecond), sum.QPS)
	return sum
}

// percentile returns the nearest-rank q-quantile of sorted latencies:
// ceil(q·n)-1, so the p50 of two samples is the lower one, not the max.
func percentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// seedColumns ingests and finalizes the loadtest's column family
// through the public API, skipping any column the server already has
// finalized (a rerun against a warm server). Reports are perturbed
// client-side under the attribute families the server derives from the
// shared seed, exactly like a real gateway.
func seedColumns(client *http.Client, base string, p core.Params, seed int64, names map[string]string, reports int) error {
	mp := core.MatrixParams{K: p.K, M1: p.M, M2: p.M, Epsilon: p.Epsilon}
	fams := []*hashing.Family{
		hashing.NewFamily(hashing.AttributeSeed(seed, 0), p.K, p.M),
		hashing.NewFamily(hashing.AttributeSeed(seed, 1), p.K, p.M),
	}
	const domain = 4096
	rng := rand.New(rand.NewSource(seed))

	encodeJoin := func(attr int) (*bytes.Buffer, error) {
		var buf bytes.Buffer
		w, err := protocol.NewReportWriter(&buf, p)
		if err != nil {
			return nil, err
		}
		for i := 0; i < reports; i++ {
			if err := w.Write(core.Perturb(uint64(rng.Intn(domain)), p, fams[attr], rng)); err != nil {
				return nil, err
			}
		}
		return &buf, w.Flush()
	}
	encodeMatrix := func() (*bytes.Buffer, error) {
		var buf bytes.Buffer
		w, err := protocol.NewMatrixReportWriter(&buf, mp)
		if err != nil {
			return nil, err
		}
		for i := 0; i < reports; i++ {
			if err := w.Write(core.PerturbTuple(uint64(rng.Intn(domain)), uint64(rng.Intn(domain)), mp, fams[0], fams[1], rng)); err != nil {
				return nil, err
			}
		}
		return &buf, w.Flush()
	}

	seeds := []struct {
		name   string
		query  string
		encode func() (*bytes.Buffer, error)
	}{
		{names["a"], "", func() (*bytes.Buffer, error) { return encodeJoin(0) }},
		{names["b"], "", func() (*bytes.Buffer, error) { return encodeJoin(0) }},
		{names["ab"], "?attr=0", encodeMatrix},
		{names["c"], "?attr=1", func() (*bytes.Buffer, error) { return encodeJoin(1) }},
	}
	for _, sc := range seeds {
		state, err := columnState(client, base, sc.name)
		if err != nil {
			return err
		}
		switch state {
		case "finalized":
			fmt.Printf("column %-12s already finalized; skipping seed\n", sc.name)
			continue
		case "collecting":
			// An interrupted earlier seed already ingested its reports;
			// re-seeding would double them, so just finalize what's there.
			fmt.Printf("column %-12s collecting (interrupted seed?); finalizing as-is\n", sc.name)
			if err := postOK(client, base+"/v1/columns/"+url.PathEscape(sc.name)+"/finalize", nil,
				"finalizing %q", sc.name); err != nil {
				return err
			}
			continue
		}
		stream, err := sc.encode()
		if err != nil {
			return fmt.Errorf("encoding seed stream for %q: %w", sc.name, err)
		}
		u := base + "/v1/columns/" + url.PathEscape(sc.name) + "/reports" + sc.query
		if err := postOK(client, u, stream, "seeding %q", sc.name); err != nil {
			return err
		}
		if err := postOK(client, base+"/v1/columns/"+url.PathEscape(sc.name)+"/finalize", nil,
			"finalizing %q", sc.name); err != nil {
			return err
		}
		fmt.Printf("column %-12s seeded with %d reports and finalized\n", sc.name, reports)
	}
	return nil
}

// postOK posts body (may be nil) and requires a 200, folding the error
// body into the failure message.
func postOK(client *http.Client, url string, body io.Reader, format string, args ...any) error {
	resp, err := client.Post(url, "application/octet-stream", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", fmt.Sprintf(format, args...), apiError(resp))
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// columnState asks the server for name's lifecycle state: "finalized",
// "collecting", or "" when the column does not exist yet.
func columnState(client *http.Client, base, name string) (string, error) {
	resp, err := client.Get(base + "/v1/columns/" + url.PathEscape(name))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return "", nil
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("checking column %q: %s", name, apiError(resp))
	}
	var status struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return "", fmt.Errorf("checking column %q: %w", name, err)
	}
	return status.State, nil
}
