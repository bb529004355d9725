package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/store"
)

// opsServer starts a durable server with the given options, sharing
// params and seed with durableServer.
func opsServer(t *testing.T, dir string, opts Options) (*Server, *httptest.Server, core.Params) {
	t.Helper()
	p := core.Params{K: 9, M: 512, Epsilon: 4}
	opts.DataDir = dir
	srv, err := NewWithOptions(p, 42, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts, p
}

// TestBackgroundCheckpointKillDuringIngest is the acceptance test of
// the background checkpointer: under sustained concurrent ingest the
// checkpointer must cut snapshots and compact covered WAL segments
// while requests keep landing — and a kill afterwards must recover by
// replaying only the records past the newest checkpoint, ending in a
// sketch byte-identical to an uninterrupted run of the same streams.
func TestBackgroundCheckpointKillDuringIngest(t *testing.T) {
	const (
		writers  = 4
		batches  = 6
		perBatch = 500
		tailSize = 250
		domain   = 400
	)
	dir := t.TempDir()
	srv, ts, p := opsServer(t, dir, Options{
		Store: store.Options{
			CheckpointBytes: 4 << 10,
			CheckpointTick:  5 * time.Millisecond,
		},
	})

	// Pre-encode every stream so the reference run can replay them.
	var streams [][]byte
	for w := 0; w < writers; w++ {
		for b := 0; b < batches; b++ {
			data := dataset.Zipf(int64(w*batches+b+1), perBatch, domain, 1.2)
			streams = append(streams, encodeColumn(t, p, int64(100+w*batches+b), data))
		}
	}

	// Stage 1: busy concurrent ingest. The byte trigger (4 KiB) is tiny
	// against ~writers*batches*perBatch report records, so background
	// checkpoints fire while these workers are still posting.
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				resp, err := http.Post(ts.URL+"/v1/columns/A/reports",
					"application/octet-stream", bytes.NewReader(streams[w*batches+b]))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("ingest batch %d/%d: status %d", w, b, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The checkpointer must have run at least once during the ingest
	// (poll briefly: the last trigger can still be in flight).
	deadline := time.Now().Add(5 * time.Second)
	for srv.st.Stats().BackgroundCheckpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint after busy ingest: %+v", srv.st.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if errs := srv.st.Stats().CheckpointErrors; errs != 0 {
		t.Fatalf("background checkpointer reported %d errors", errs)
	}

	// Stage 2: cut one deterministic checkpoint over the quiesced
	// column, then ingest a known tail — recovery must replay exactly
	// that tail and nothing before it.
	if err := srv.CheckpointNow("A"); err != nil {
		t.Fatal(err)
	}
	var tail [][]byte
	for i := 0; i < 2; i++ {
		data := dataset.Zipf(int64(900+i), tailSize, domain, 1.2)
		stream := encodeColumn(t, p, int64(900+i), data)
		tail = append(tail, stream)
		if code, out := post(t, ts.URL+"/v1/columns/A/reports", stream); code != 200 {
			t.Fatalf("tail ingest: %d %v", code, out)
		}
	}
	crash(t, srv, ts)

	// On disk: the newest checkpoint must have compacted every covered
	// segment — all surviving segment files sit past its sequence.
	colDirs, err := filepath.Glob(filepath.Join(dir, "col-*"))
	if err != nil || len(colDirs) != 1 {
		t.Fatalf("column dirs: %v %v", colDirs, err)
	}
	entries, err := os.ReadDir(colDirs[0])
	if err != nil {
		t.Fatal(err)
	}
	var ckptSeq, minSeg uint64
	minSeg = ^uint64(0)
	for _, e := range entries {
		name := e.Name()
		parse := func(prefix, suffix string) (uint64, bool) {
			if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
				return 0, false
			}
			n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
			return n, err == nil
		}
		if seq, ok := parse("ckpt-", ".snap"); ok && seq > ckptSeq {
			ckptSeq = seq
		}
		if seq, ok := parse("seg-", ".wal"); ok && seq < minSeg {
			minSeg = seq
		}
	}
	if ckptSeq == 0 {
		t.Fatal("no checkpoint file on disk after background checkpointing")
	}
	if minSeg <= ckptSeq {
		t.Fatalf("segment seg-%08d survives under checkpoint ckpt-%08d: covered segments were not compacted", minSeg, ckptSeq)
	}

	// Recovery replays only the tail: the checkpoint carries everything
	// the compacted segments held.
	srv2, ts2, _ := opsServer(t, dir, Options{})
	defer srv2.Close()
	defer ts2.Close()
	const total = writers*batches*perBatch + 2*tailSize
	if code, body := get(t, ts2.URL+"/v1/columns/A"); code != 200 || body["reports"].(float64) != total {
		t.Fatalf("recovered A: %d %v, want %d reports", code, body, total)
	}
	if rep := srv2.recovered.Reports; rep != 2*tailSize {
		t.Fatalf("recovery replayed %d reports, want exactly the %d-report post-checkpoint tail", rep, 2*tailSize)
	}
	if srv2.recovered.Checkpoints < 1 {
		t.Fatalf("recovery loaded %d checkpoints, want >= 1", srv2.recovered.Checkpoints)
	}
	if code, _ := post(t, ts2.URL+"/v1/columns/A/finalize", nil); code != 200 {
		t.Fatal("finalize after recovery failed")
	}
	got := fetchSketch(t, ts2.URL, "A")

	// Reference: an uninterrupted in-memory run over the same streams.
	_, tsRef, _ := testServer(t)
	for _, stream := range append(streams, tail...) {
		if code, _ := post(t, tsRef.URL+"/v1/columns/A/reports", stream); code != 200 {
			t.Fatal("reference ingest failed")
		}
	}
	if code, _ := post(t, tsRef.URL+"/v1/columns/A/finalize", nil); code != 200 {
		t.Fatal("reference finalize failed")
	}
	if !bytes.Equal(got, fetchSketch(t, tsRef.URL, "A")) {
		t.Fatal("recovered sketch is not byte-identical to the uninterrupted run")
	}
}

// envelope pulls the structured error out of a response body map,
// failing the test if the envelope shape is missing.
func envelope(t *testing.T, body map[string]any) (code, message, column string) {
	t.Helper()
	env, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error envelope: %v", body)
	}
	code, _ = env["code"].(string)
	message, _ = env["message"].(string)
	column, _ = env["column"].(string)
	if code == "" || message == "" {
		t.Fatalf("envelope missing code or message: %v", env)
	}
	return code, message, column
}

// TestErrorEnvelopeAllRoutes drives every route into its error paths
// and asserts the structured envelope: the right status, the right
// stable code, and the column attribution where one applies.
func TestErrorEnvelopeAllRoutes(t *testing.T) {
	_, ts, p := testServer(t)
	stream := encodeColumn(t, p, 7, dataset.Zipf(7, 200, 100, 1.2))
	if code, _ := post(t, ts.URL+"/v1/columns/C/reports", stream); code != 200 {
		t.Fatal("seed ingest failed")
	}
	if code, _ := post(t, ts.URL+"/v1/columns/F/reports", stream); code != 200 {
		t.Fatal("seed ingest failed")
	}
	if code, _ := post(t, ts.URL+"/v1/columns/F/finalize", nil); code != 200 {
		t.Fatal("seed finalize failed")
	}

	cases := []struct {
		name       string
		method     string
		url        string
		body       []byte
		wantStatus int
		wantCode   string
		wantColumn string
	}{
		{"garbage reports", "POST", "/v1/columns/X/reports", []byte("not a report stream"), 400, "bad_request", ""},
		{"status of unknown column", "GET", "/v1/columns/nope", nil, 404, "column_not_found", ""},
		{"sketch of collecting column", "GET", "/v1/columns/C/sketch", nil, 409, "column_not_finalized", "C"},
		{"sketch of unknown column", "GET", "/v1/columns/nope/sketch", nil, 404, "column_not_found", "nope"},
		{"join of collecting columns", "GET", "/v1/join?left=C&right=F", nil, 409, "column_not_finalized", "C"},
		{"join of unknown column", "GET", "/v1/join?left=nope&right=F", nil, 404, "column_not_found", "nope"},
		{"join without arguments", "GET", "/v1/join", nil, 400, "bad_request", ""},
		{"chain with unknown column", "GET", "/v1/join?path=F,nope,F", nil, 404, "column_not_found", "nope"},
		{"frequency of collecting column", "GET", "/v1/frequency?column=C&value=1", nil, 409, "column_not_finalized", "C"},
		{"frequency without arguments", "GET", "/v1/frequency", nil, 400, "bad_request", ""},
		{"reports into finalized column", "POST", "/v1/columns/F/reports", stream, 409, "column_finalized", "F"},
		{"double finalize", "POST", "/v1/columns/F/finalize", nil, 409, "column_finalized", "F"},
		{"garbage merge", "POST", "/v1/columns/X/merge", []byte("0123456789012345678901234567890123456789012345678901234567890123"), 400, "bad_request", ""},
		{"advance of non-plus column", "POST", "/v1/columns/C/advance?domain=100&theta=0.01", nil, 409, "column_conflict", "C"},
		// Bounded before decoding: the body is refused for its size, not
		// buffered whole and then judged by its (tiny, deduplicated) FI.
		{"oversized advance body", "POST", "/v1/columns/C/advance", []byte(`{"domain":100,"theta":0.01,"fi":[` + strings.Repeat("1,", maxAdvanceBody/2) + `1]}`), 413, "payload_too_large", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body map[string]any
			if tc.method == "GET" {
				status, body = get(t, ts.URL+tc.url)
			} else {
				status, body = post(t, ts.URL+tc.url, tc.body)
			}
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%v)", status, tc.wantStatus, body)
			}
			code, _, column := envelope(t, body)
			if code != tc.wantCode {
				t.Fatalf("code %q, want %q (%v)", code, tc.wantCode, body)
			}
			if tc.wantColumn != "" && column != tc.wantColumn {
				t.Fatalf("column %q, want %q (%v)", column, tc.wantColumn, body)
			}
		})
	}
}

// TestColumnsListing: GET /v1/columns reports every column with its
// lifecycle state and privacy spend.
// TestAdvanceBodyBoundFitsIndentedMaximalFI: the /advance body bound
// must admit the largest legitimate request however the client's
// encoder spaces it — a maximal FI set of 20-digit values, one item per
// indented line.
func TestAdvanceBodyBoundFitsIndentedMaximalFI(t *testing.T) {
	fi := make([]uint64, protocol.MaxPlusFI)
	for i := range fi {
		fi[i] = ^uint64(0)
	}
	body, err := json.MarshalIndent(advanceRequest{Domain: ^uint64(0), Theta: 0.000123456789, FI: fi}, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxAdvanceBody {
		t.Fatalf("indented maximal advance body is %d bytes, above the %d-byte bound", len(body), maxAdvanceBody)
	}
}

func TestColumnsListing(t *testing.T) {
	_, ts, p := testServer(t)
	stream := encodeColumn(t, p, 3, dataset.Zipf(3, 150, 100, 1.2))
	if code, _ := post(t, ts.URL+"/v1/columns/A/reports", stream); code != 200 {
		t.Fatal("ingest failed")
	}
	if code, _ := post(t, ts.URL+"/v1/columns/B/reports", stream); code != 200 {
		t.Fatal("ingest failed")
	}
	if code, _ := post(t, ts.URL+"/v1/columns/B/finalize", nil); code != 200 {
		t.Fatal("finalize failed")
	}
	code, body := get(t, ts.URL+"/v1/columns")
	if code != 200 || body["count"].(float64) != 2 {
		t.Fatalf("listing: %d %v", code, body)
	}
	cols := body["columns"].([]any)
	a := cols[0].(map[string]any)
	b := cols[1].(map[string]any)
	if a["name"] != "A" || a["state"] != "collecting" || a["reports"].(float64) != 150 {
		t.Fatalf("column A entry: %v", a)
	}
	if b["name"] != "B" || b["state"] != "finalized" || b["kind"] != "join" {
		t.Fatalf("column B entry: %v", b)
	}
	for _, entry := range []map[string]any{a, b} {
		keys := slices.Sorted(maps.Keys(entry))
		if want := []string{"attr", "kind", "name", "reports", "state"}; !slices.Equal(keys, want) {
			t.Fatalf("column %v has keys %v, want exactly %v", entry["name"], keys, want)
		}
	}
}

// promLine matches one exposition sample: name, optional {labels},
// space, float value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? (-?[0-9.]+(e[+-]?[0-9]+)?|[+-]Inf|NaN)$`)

// TestMetricsExposition scrapes /metrics after exercising the API and
// checks the page parses as Prometheus text exposition with the
// families an operator dashboards on.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	srv, ts, p := opsServer(t, dir, Options{})
	defer srv.Close()
	defer ts.Close()
	stream := encodeColumn(t, p, 5, dataset.Zipf(5, 100, 50, 1.2))
	for _, col := range []string{"A", "B"} {
		if code, _ := post(t, ts.URL+"/v1/columns/"+col+"/reports", stream); code != 200 {
			t.Fatal("ingest failed")
		}
		if code, _ := post(t, ts.URL+"/v1/columns/"+col+"/finalize", nil); code != 200 {
			t.Fatal("finalize failed")
		}
	}
	if code, _ := get(t, ts.URL+"/v1/join?left=A&right=B"); code != 200 {
		t.Fatal("join failed")
	}
	get(t, ts.URL+"/v1/columns/nope") // a 404 for the code label

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	samples := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(page.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		samples[line[:strings.IndexAny(line, "{ ")]]++
	}
	for _, family := range []string{
		"ldpjoin_up",
		"ldpjoin_http_requests_total",
		"ldpjoin_http_request_duration_seconds_bucket",
		"ldpjoin_http_request_duration_seconds_sum",
		"ldpjoin_http_request_duration_seconds_count",
		"ldpjoin_columns",
		"ldpjoin_query_cache_hit_ratio",
		"ldpjoin_wal_appends_total",
		"ldpjoin_checkpoint_age_seconds",
		"ldpjoin_recovery_columns_total",
		"ldpjoin_recovery_finalized_columns_total",
		"ldpjoin_recovery_merges_total",
	} {
		if samples[family] == 0 {
			t.Errorf("family %s has no samples", family)
		}
	}
	// The route label is the mux pattern, not the raw path: per-column
	// URLs must not fan out into per-name label values.
	if strings.Contains(page.String(), `route="/v1/columns/A`) {
		t.Fatal("route label leaked a raw URL instead of the mux pattern")
	}
	if !strings.Contains(page.String(), `route="GET /v1/join"`) {
		t.Fatal("missing per-route sample for GET /v1/join")
	}
}
