package service

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/join"
	"ldpjoin/internal/protocol"
)

// Matrix-column tests, and the operation and lifecycle tests that reuse
// matrixServer, run under their own configuration, smaller than the
// scalar suite's.
var (
	mtParams = core.Params{K: 7, M: 128, Epsilon: 5}
	mtMatrix = core.MatrixParams{K: 7, M1: 128, M2: 128, Epsilon: 5}
)

const mtSeed = 42

// mtFam returns attribute attr's hash family under the test seed.
func mtFam(attr int) *hashing.Family {
	return hashing.NewFamily(hashing.AttributeSeed(mtSeed, attr), mtParams.K, mtParams.M)
}

// matrixServer starts an in-memory server under the matrix test
// configuration; dir != "" makes it durable.
func matrixServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewWithOptions(mtParams, mtSeed, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	if dir == "" {
		t.Cleanup(srv.Close)
		t.Cleanup(ts.Close)
	}
	return srv, ts
}

// encodeAttrColumn perturbs a column under attribute attr's family and
// returns the KindJoin wire stream.
func encodeAttrColumn(t *testing.T, attr int, clientSeed int64, data []uint64) []byte {
	t.Helper()
	fam := mtFam(attr)
	var buf bytes.Buffer
	w, err := protocol.NewReportWriter(&buf, mtParams)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(clientSeed))
	for _, d := range data {
		if err := w.Write(core.Perturb(d, mtParams, fam, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeMatrixColumn perturbs a two-column table spanning attributes
// (attr, attr+1) and returns the KindMatrix wire stream.
func encodeMatrixColumn(t *testing.T, attr int, clientSeed int64, a, b []uint64) []byte {
	t.Helper()
	famA, famB := mtFam(attr), mtFam(attr+1)
	var buf bytes.Buffer
	w, err := protocol.NewMatrixReportWriter(&buf, mtMatrix)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(clientSeed))
	for i := range a {
		if err := w.Write(core.PerturbTuple(a[i], b[i], mtMatrix, famA, famB, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeStreamReports re-decodes a KindJoin wire stream into reports,
// for building in-process reference sketches from the exact bytes the
// server ingested.
func decodeStreamReports(t *testing.T, stream []byte) []core.Report {
	t.Helper()
	rd, err := protocol.NewBatchReader(bytes.NewReader(stream), mtParams)
	if err != nil {
		t.Fatal(err)
	}
	return drainBatches(t, rd.Next)
}

// decodeMatrixStreamReports is decodeStreamReports for KindMatrix.
func decodeMatrixStreamReports(t *testing.T, stream []byte) []core.MatrixReport {
	t.Helper()
	rd, err := protocol.NewMatrixBatchReader(bytes.NewReader(stream), mtMatrix)
	if err != nil {
		t.Fatal(err)
	}
	return drainBatches(t, rd.Next)
}

func drainBatches[R any](t *testing.T, next func(int) ([]R, error)) []R {
	t.Helper()
	var out []R
	for {
		batch, err := next(0)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batch...)
	}
}

// TestServiceMatrixEndToEnd is the acceptance test of the polymorphic
// column stack: KindMatrix streams ingest into a live durable server
// alongside attribute-0 and attribute-1 join columns, the chain planner
// answers GET /v1/join?path=T1,T2,T3 with exactly the estimate an
// in-process ChainEstimate over the same reports produces (and within
// loose relative error of the exact join size), the server survives a
// kill-and-reopen with byte-identical state, and a 2-collector
// federated run merges to the same bytes and the same estimate.
func TestServiceMatrixEndToEnd(t *testing.T) {
	const n, domain = 12000, 200
	t1 := dataset.Zipf(61, n, domain, 1.3)
	t2a := dataset.Zipf(62, n, domain, 1.3)
	t2b := dataset.Zipf(63, n, domain, 1.3)
	t3 := dataset.Zipf(64, n, domain, 1.3)
	truth := join.ChainSize(t1, []join.PairTable{{A: t2a, B: t2b}}, t3)

	// Each column's stream is cut in two so the federation leg below can
	// hand one half to each collector — the union is the same bytes.
	streams := map[string][2][]byte{
		"T1": {encodeAttrColumn(t, 0, 71, t1[:n/2]), encodeAttrColumn(t, 0, 72, t1[n/2:])},
		"T2": {encodeMatrixColumn(t, 0, 73, t2a[:n/2], t2b[:n/2]), encodeMatrixColumn(t, 0, 74, t2a[n/2:], t2b[n/2:])},
		"T3": {encodeAttrColumn(t, 1, 75, t3[:n/2]), encodeAttrColumn(t, 1, 76, t3[n/2:])},
	}
	ingestURL := map[string]string{
		"T1": "/v1/columns/T1/reports",
		"T2": "/v1/columns/T2/reports?attr=0",
		"T3": "/v1/columns/T3/reports?attr=1",
	}
	columns := []string{"T1", "T2", "T3"}

	// In-process reference: fold the exact same reports sequentially and
	// compose the chain estimator directly.
	refT1 := core.NewAggregator(mtParams, mtFam(0))
	refT3 := core.NewAggregator(mtParams, mtFam(1))
	refT2 := core.NewMatrixAggregator(mtMatrix, mtFam(0), mtFam(1))
	for _, half := range streams["T1"] {
		for _, r := range decodeStreamReports(t, half) {
			refT1.Add(r)
		}
	}
	for _, half := range streams["T3"] {
		for _, r := range decodeStreamReports(t, half) {
			refT3.Add(r)
		}
	}
	for _, half := range streams["T2"] {
		for _, r := range decodeMatrixStreamReports(t, half) {
			refT2.Add(r)
		}
	}
	want := core.ChainEstimate(refT1.Finalize(), []*core.MatrixSketch{refT2.Finalize()}, refT3.Finalize())

	// Live durable server: ingest the first halves, crash, reopen (WAL
	// replay), ingest the second halves, finalize, query.
	dir := t.TempDir()
	srv1, ts1 := matrixServer(t, dir)
	for _, col := range columns {
		if code, out := post(t, ts1.URL+ingestURL[col], streams[col][0]); code != 200 {
			t.Fatalf("ingest %s: %d %v", col, code, out)
		}
	}
	crash(t, srv1, ts1)

	srv2, ts2 := matrixServer(t, dir)
	if code, body := get(t, ts2.URL+"/v1/columns/T2"); code != 200 ||
		body["kind"] != "matrix" || body["state"] != "collecting" || body["reports"].(float64) != n/2 {
		t.Fatalf("recovered T2 status: %d %v", code, body)
	}
	for _, col := range columns {
		if code, out := post(t, ts2.URL+ingestURL[col], streams[col][1]); code != 200 {
			t.Fatalf("post-recovery ingest %s: %d %v", col, code, out)
		}
	}
	for _, col := range columns {
		if code, out := post(t, ts2.URL+"/v1/columns/"+col+"/finalize", nil); code != 200 {
			t.Fatalf("finalize %s: %d %v", col, code, out)
		}
	}
	code, body := get(t, ts2.URL+"/v1/join?path=T1,T2,T3")
	if code != 200 {
		t.Fatalf("chain query: %d %v", code, body)
	}
	est := body["estimate"].(float64)
	if est != want {
		t.Fatalf("chain estimate %v != in-process ChainEstimate %v over the same reports", est, want)
	}
	if re := math.Abs(est-truth) / truth; re > 1.0 {
		t.Fatalf("chain RE = %.3f (est %.6g truth %.6g)", re, est, truth)
	}
	// Memoized on repeat.
	if code, body := get(t, ts2.URL+"/v1/join?path=T1,T2,T3"); code != 200 || body["cached"] != true {
		t.Fatalf("repeat chain query: %d %v", code, body)
	}
	snaps := make(map[string][]byte, len(columns))
	for _, col := range columns {
		snaps[col] = getSnapshot(t, ts2.URL, col)
	}
	crash(t, srv2, ts2)

	// Finalized matrix state survives a second kill-and-reopen.
	srv3, ts3 := matrixServer(t, dir)
	for _, col := range columns {
		if !bytes.Equal(getSnapshot(t, ts3.URL, col), snaps[col]) {
			t.Fatalf("finalized %s snapshot changed across restart", col)
		}
	}
	code, body = get(t, ts3.URL+"/v1/join?path=T1,T2,T3")
	if code != 200 || body["estimate"].(float64) != want {
		t.Fatalf("chain estimate after restart: %d %v, want %v", code, body, want)
	}
	ts3.Close()
	srv3.Close()

	// Federation: two in-memory collectors each ingest one half of every
	// column; a federator merges their unfinalized snapshots. The
	// finalized federated state must be byte-identical to the
	// single-node run, with the identical chain estimate.
	_, tsA := matrixServer(t, "")
	_, tsB := matrixServer(t, "")
	_, tsF := matrixServer(t, "")
	for _, col := range columns {
		if code, out := post(t, tsA.URL+ingestURL[col], streams[col][0]); code != 200 {
			t.Fatalf("collector A ingest %s: %d %v", col, code, out)
		}
		if code, out := post(t, tsB.URL+ingestURL[col], streams[col][1]); code != 200 {
			t.Fatalf("collector B ingest %s: %d %v", col, code, out)
		}
	}
	for _, col := range columns {
		for _, collector := range []string{tsA.URL, tsB.URL} {
			snap := getSnapshot(t, collector, col)
			if code, out := post(t, tsF.URL+"/v1/columns/"+col+"/merge", snap); code != 200 {
				t.Fatalf("merging %s: %d %v", col, code, out)
			}
		}
		if code, out := post(t, tsF.URL+"/v1/columns/"+col+"/finalize", nil); code != 200 {
			t.Fatalf("federator finalize %s: %d %v", col, code, out)
		}
	}
	for _, col := range columns {
		if !bytes.Equal(getSnapshot(t, tsF.URL, col), snaps[col]) {
			t.Fatalf("federated %s differs from single-node ingestion", col)
		}
	}
	code, body = get(t, tsF.URL+"/v1/join?path=T1,T2,T3")
	if code != 200 || body["estimate"].(float64) != want {
		t.Fatalf("federated chain estimate: %d %v, want %v", code, body, want)
	}
}

// TestServiceChainPlannerRejections covers the planner's refusals:
// malformed paths, unknown columns, kinds in the wrong position, and
// chains whose attribute slots do not compose.
func TestServiceChainPlannerRejections(t *testing.T) {
	_, ts := matrixServer(t, "")
	const n = 500
	data := dataset.Zipf(81, n, 100, 1.3)

	for name, url := range map[string]string{
		"T1": "/v1/columns/T1/reports",        // join, attr 0
		"T3": "/v1/columns/T3/reports?attr=1", // join, attr 1
	} {
		body := encodeAttrColumn(t, 0, 91, data)
		if name == "T3" {
			body = encodeAttrColumn(t, 1, 92, data)
		}
		if code, out := post(t, ts.URL+url, body); code != 200 {
			t.Fatalf("ingest %s: %d %v", name, code, out)
		}
	}
	if code, out := post(t, ts.URL+"/v1/columns/AB/reports?attr=1",
		encodeMatrixColumn(t, 1, 93, data, data)); code != 200 {
		t.Fatalf("ingest AB: %d %v", code, out)
	}
	for _, col := range []string{"T1", "T3", "AB"} {
		if code, out := post(t, ts.URL+"/v1/columns/"+col+"/finalize", nil); code != 200 {
			t.Fatalf("finalize %s: %d %v", col, code, out)
		}
	}

	// Too short.
	if code, _ := get(t, ts.URL+"/v1/join?path=T1,T3"); code != 400 {
		t.Fatalf("2-column path: code %d, want 400", code)
	}
	// Unknown column.
	if code, _ := get(t, ts.URL+"/v1/join?path=T1,nope,T3"); code != 404 {
		t.Fatalf("unknown chain column: code %d, want 404", code)
	}
	// Join column in a middle position.
	if code, _ := get(t, ts.URL+"/v1/join?path=T1,T3,T1"); code != 400 {
		t.Fatalf("join column mid-chain: code %d, want 400", code)
	}
	// Matrix column in an end position.
	if code, _ := get(t, ts.URL+"/v1/join?path=AB,AB,T3"); code != 400 {
		t.Fatalf("matrix column at chain end: code %d, want 400", code)
	}
	// Non-adjacent slots: T1 occupies attribute 0, AB spans (1, 2) — the
	// middle's left family is not the left end's family.
	if code, body := get(t, ts.URL+"/v1/join?path=T1,AB,T3"); code != 409 {
		t.Fatalf("non-composing chain: code %d (%v), want 409", code, body)
	}
	// The composable chain works: T3 (attr 1) ⋈ AB (1,2) needs a right
	// end on attribute 2.
	if code, out := post(t, ts.URL+"/v1/columns/T5/reports?attr=2",
		encodeAttrColumn(t, 2, 94, data)); code != 200 {
		t.Fatalf("ingest T5: %d %v", code, out)
	}
	if code, _ := post(t, ts.URL+"/v1/columns/T5/finalize", nil); code != 200 {
		t.Fatal("finalize T5 failed")
	}
	if code, body := get(t, ts.URL+"/v1/join?path=T3,AB,T5"); code != 200 {
		t.Fatalf("composable chain: %d %v", code, body)
	}
	// Pairwise join across matrix columns is redirected to ?path=.
	if code, _ := get(t, ts.URL+"/v1/join?left=AB&right=T1"); code != 400 {
		t.Fatalf("pairwise join of a matrix column: code %d, want 400", code)
	}
	// Frequency on a matrix column is refused.
	if code, _ := get(t, ts.URL+"/v1/frequency?column=AB&value=1"); code != 400 {
		t.Fatalf("frequency on a matrix column: code %d, want 400", code)
	}
	// A matrix stream into an existing join column conflicts.
	if code, _ := post(t, ts.URL+"/v1/columns/T9/reports", encodeAttrColumn(t, 0, 95, data)); code != 200 {
		t.Fatal("ingest T9 failed")
	}
	if code, _ := post(t, ts.URL+"/v1/columns/T9/reports?attr=0", encodeMatrixColumn(t, 0, 96, data, data)); code != 409 {
		t.Fatalf("kind flip on a collecting column: code %d, want 409", code)
	}
	// Out-of-range attr.
	if code, _ := post(t, ts.URL+"/v1/columns/T10/reports?attr=99", encodeAttrColumn(t, 0, 97, data)); code != 400 {
		t.Fatalf("out-of-range attr: code %d, want 400", code)
	}
}

// TestServiceQueryCacheBounded pins the satellite fix: the query cache
// stops growing at its cap, evicts oldest-first, and counts evictions
// in /v1/stats.
func TestServiceQueryCacheBounded(t *testing.T) {
	p := core.Params{K: 4, M: 64, Epsilon: 2}
	srv, err := NewWithOptions(p, mtSeed, Options{QueryCacheEntries: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	fam := hashing.NewFamily(hashing.AttributeSeed(mtSeed, 0), p.K, p.M)
	var buf bytes.Buffer
	w, err := protocol.NewReportWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		if err := w.Write(core.Perturb(uint64(i%20), p, fam, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if code, _ := post(t, ts.URL+"/v1/columns/A/reports", buf.Bytes()); code != 200 {
		t.Fatal("ingest failed")
	}
	if code, _ := post(t, ts.URL+"/v1/columns/A/finalize", nil); code != 200 {
		t.Fatal("finalize failed")
	}

	// 8 distinct frequency queries through a 3-entry cache: size stays
	// capped, 5 evictions.
	for v := 0; v < 8; v++ {
		if code, _ := get(t, ts.URL+"/v1/frequency?column=A&value="+strconv.Itoa(v)); code != 200 {
			t.Fatalf("frequency query %d failed", v)
		}
	}
	_, stats := get(t, ts.URL+"/v1/stats")
	qc := stats["queryCache"].(map[string]any)
	if qc["size"].(float64) != 3 || qc["capacity"].(float64) != 3 {
		t.Fatalf("cache size = %v", qc)
	}
	if qc["evictions"].(float64) != 5 || qc["misses"].(float64) != 8 || qc["hits"].(float64) != 0 {
		t.Fatalf("cache counters = %v", qc)
	}
	// The newest entries are still cached; the oldest were evicted.
	if code, body := get(t, ts.URL+"/v1/frequency?column=A&value=7"); code != 200 || body["cached"] != true {
		t.Fatalf("newest entry evicted: %d %v", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/frequency?column=A&value=0"); code != 200 || body["cached"] != false {
		t.Fatalf("oldest entry still cached: %d %v", code, body)
	}
}

// TestServiceFrequencyMemoized pins the satellite fix: repeated
// frequency queries hit the unified cache and return identical values.
func TestServiceFrequencyMemoized(t *testing.T) {
	_, ts, p := testServer(t)
	data := dataset.Zipf(14, 5000, 300, 1.3)
	if code, _ := post(t, ts.URL+"/v1/columns/A/reports", encodeColumn(t, p, 14, data)); code != 200 {
		t.Fatal("ingest failed")
	}
	if code, _ := post(t, ts.URL+"/v1/columns/A/finalize", nil); code != 200 {
		t.Fatal("finalize failed")
	}
	code, first := get(t, ts.URL+"/v1/frequency?column=A&value=3")
	if code != 200 || first["cached"] != false {
		t.Fatalf("first frequency query: %d %v", code, first)
	}
	code, second := get(t, ts.URL+"/v1/frequency?column=A&value=3")
	if code != 200 || second["cached"] != true {
		t.Fatalf("repeat frequency query: %d %v", code, second)
	}
	if first["estimate"] != second["estimate"] || first["estimateMedian"] != second["estimateMedian"] {
		t.Fatalf("cached frequency differs: %v vs %v", first, second)
	}
	// The cache keys on the parsed value, not its spelling.
	code, padded := get(t, ts.URL+"/v1/frequency?column=A&value=03")
	if code != 200 || padded["cached"] != true || padded["estimate"] != first["estimate"] {
		t.Fatalf("zero-padded repeat of the same value: %d %v", code, padded)
	}
	_, stats := get(t, ts.URL+"/v1/stats")
	qc := stats["queryCache"].(map[string]any)
	if qc["hits"].(float64) != 2 || qc["misses"].(float64) != 1 {
		t.Fatalf("frequency cache counters = %v", qc)
	}
}
