package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/join"
	"ldpjoin/internal/protocol"
)

func testServer(t *testing.T) (*Server, *httptest.Server, core.Params) {
	t.Helper()
	p := core.Params{K: 9, M: 512, Epsilon: 4}
	srv, err := New(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close) // after ts.Close: requests drain before the engine stops
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, p
}

// encodeColumn perturbs a column client-side and returns the wire-format
// stream.
func encodeColumn(t *testing.T, p core.Params, seed int64, data []uint64) []byte {
	t.Helper()
	fam := p.NewFamily(42)
	var buf bytes.Buffer
	w, err := protocol.NewReportWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, d := range data {
		if err := w.Write(core.Perturb(d, p, fam, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(t *testing.T, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func TestServiceEndToEnd(t *testing.T) {
	_, ts, p := testServer(t)
	const n, domain = 60000, 3000
	da := dataset.Zipf(1, n, domain, 1.3)
	db := dataset.Zipf(2, n, domain, 1.3)
	truth := join.Size(da, db)

	// Ingest A over two batches, B over one.
	if code, _ := post(t, ts.URL+"/v1/columns/A/reports", encodeColumn(t, p, 10, da[:n/2])); code != 200 {
		t.Fatalf("first batch code %d", code)
	}
	if code, body := post(t, ts.URL+"/v1/columns/A/reports", encodeColumn(t, p, 11, da[n/2:])); code != 200 {
		t.Fatalf("second batch code %d: %v", code, body)
	} else if body["total"].(float64) != n {
		t.Fatalf("total = %v, want %d", body["total"], n)
	}
	if code, _ := post(t, ts.URL+"/v1/columns/B/reports", encodeColumn(t, p, 12, db)); code != 200 {
		t.Fatal("B ingest failed")
	}

	// Status before finalize.
	if code, body := get(t, ts.URL+"/v1/columns/A"); code != 200 || body["state"] != "collecting" {
		t.Fatalf("status = %d %v", code, body)
	}
	// Join before still-collecting columns is a 409 column_not_finalized
	// — the columns exist, the caller should finalize and retry — not a
	// 404 (which would mean the names are unknown).
	if code, body := get(t, ts.URL+"/v1/join?left=A&right=B"); code != 409 {
		t.Fatalf("join before finalize code %d", code)
	} else if env, _ := body["error"].(map[string]any); env["code"] != "column_not_finalized" {
		t.Fatalf("join before finalize error %v, want column_not_finalized", body)
	}

	for _, col := range []string{"A", "B"} {
		if code, _ := post(t, ts.URL+"/v1/columns/"+col+"/finalize", nil); code != 200 {
			t.Fatalf("finalize %s failed", col)
		}
	}

	code, body := get(t, ts.URL+"/v1/join?left=A&right=B")
	if code != 200 {
		t.Fatalf("join code %d: %v", code, body)
	}
	est := body["estimate"].(float64)
	if re := math.Abs(est-truth) / truth; re > 0.5 {
		t.Fatalf("service join RE = %.3f (est %.0f truth %.0f)", re, est, truth)
	}

	// Frequency query.
	code, body = get(t, fmt.Sprintf("%s/v1/frequency?column=A&value=0", ts.URL))
	if code != 200 {
		t.Fatalf("frequency code %d", code)
	}
	if _, ok := body["estimate"].(float64); !ok {
		t.Fatalf("frequency response missing estimate: %v", body)
	}

	// Export and restore the sketch.
	resp, err := http.Get(ts.URL + "/v1/columns/A/sketch")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("export failed: %d %v", resp.StatusCode, err)
	}
	restored, err := core.UnmarshalSketch(raw)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != n {
		t.Fatalf("restored N = %g", restored.N())
	}
}

func TestServiceErrorPaths(t *testing.T) {
	_, ts, p := testServer(t)

	// Garbage stream.
	if code, _ := post(t, ts.URL+"/v1/columns/X/reports", []byte("not a stream")); code != 400 {
		t.Fatalf("garbage stream code %d, want 400", code)
	}
	// Unknown column status / export / finalize.
	if code, _ := get(t, ts.URL+"/v1/columns/none"); code != 404 {
		t.Fatalf("unknown status code %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/columns/none/finalize", nil); code != 404 {
		t.Fatalf("finalize unknown code %d", code)
	}
	// Param-mismatched stream.
	other := core.Params{K: 4, M: 512, Epsilon: 4}
	var buf bytes.Buffer
	w, err := protocol.NewReportWriter(&buf, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if code, _ := post(t, ts.URL+"/v1/columns/X/reports", buf.Bytes()); code != 400 {
		t.Fatalf("mismatched stream code %d, want 400", code)
	}
	// Double finalize → conflict; late ingest → conflict.
	good := encodeColumn(t, p, 1, []uint64{1, 2, 3})
	if code, _ := post(t, ts.URL+"/v1/columns/C/reports", good); code != 200 {
		t.Fatal("ingest failed")
	}
	if code, _ := post(t, ts.URL+"/v1/columns/C/finalize", nil); code != 200 {
		t.Fatal("finalize failed")
	}
	if code, _ := post(t, ts.URL+"/v1/columns/C/finalize", nil); code != 409 {
		t.Fatalf("double finalize code %d, want 409", code)
	}
	if code, _ := post(t, ts.URL+"/v1/columns/C/reports", good); code != 409 {
		t.Fatalf("late ingest code %d, want 409", code)
	}
	// Bad query params.
	if code, _ := get(t, ts.URL+"/v1/join?left=C"); code != 400 {
		t.Fatalf("join without right code %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/frequency?column=C&value=notanumber"); code != 400 {
		t.Fatalf("bad frequency value code %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/frequency?column=missing&value=1"); code != 404 {
		t.Fatalf("frequency unknown column code %d", code)
	}
	// Health.
	if code, body := get(t, ts.URL+"/v1/healthz"); code != 200 || body["status"] != "ok" {
		t.Fatalf("health = %d %v", code, body)
	}
}

// TestServiceRejectsEmptyStream pins the phantom-column fix: a valid
// header with zero reports (the typical typo'd-name probe) must be
// rejected without registering the column anywhere.
func TestServiceRejectsEmptyStream(t *testing.T) {
	_, ts, p := testServer(t)
	var buf bytes.Buffer
	w, err := protocol.NewReportWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, ts.URL+"/v1/columns/typo/reports", buf.Bytes()); code != 400 {
		t.Fatalf("empty stream code %d (%v), want 400", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/columns/typo"); code != 404 {
		t.Fatalf("empty stream created a column: status code %d, want 404", code)
	}
	if _, body := get(t, ts.URL+"/v1/stats"); body["collecting"].(float64) != 0 {
		t.Fatalf("empty stream polluted stats: %v", body)
	}
}

// TestSnapshotFinalizeRace drives handleSnapshot through the window
// where a concurrent finalize retires the column between the pending
// lookup and the State copy: the handler must answer 409 (retry), not
// 500, and never export half-retired state.
func TestSnapshotFinalizeRace(t *testing.T) {
	srv, ts, p := testServer(t)
	if code, _ := post(t, ts.URL+"/v1/columns/R/reports", encodeColumn(t, p, 7, []uint64{1, 2, 3, 4})); code != 200 {
		t.Fatal("ingest failed")
	}
	// Reproduce the race's intermediate state deterministically: retire
	// the column directly (as the winning finalize does first) while it
	// still sits in the pending map (as it does until the finalize
	// handler re-takes the lock).
	srv.mu.Lock()
	col := srv.pending["R"]
	srv.mu.Unlock()
	if col == nil {
		t.Fatal("column R not pending")
	}
	if _, err := col.state.finalize(); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/v1/columns/R/snapshot")
	if code != 409 {
		t.Fatalf("snapshot during finalize: code %d (%v), want 409", code, body)
	}
	env, _ := body["error"].(map[string]any)
	if msg, _ := env["message"].(string); !strings.Contains(msg, "retry") {
		t.Fatalf("conflict does not tell the client to retry: %v", body)
	}
}

func TestServiceRejectsBadParams(t *testing.T) {
	if _, err := New(core.Params{K: 0, M: 8, Epsilon: 1}, 1); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// TestServiceJoinCache: the first join of a pair computes, every repeat
// (in either orientation) is served from the cache with the same value.
func TestServiceJoinCache(t *testing.T) {
	_, ts, p := testServer(t)
	da := dataset.Zipf(4, 20000, 1000, 1.3)
	db := dataset.Zipf(5, 20000, 1000, 1.3)
	for name, data := range map[string][]uint64{"A": da, "B": db} {
		if code, _ := post(t, ts.URL+"/v1/columns/"+name+"/reports", encodeColumn(t, p, 21, data)); code != 200 {
			t.Fatalf("ingest %s failed", name)
		}
		if code, _ := post(t, ts.URL+"/v1/columns/"+name+"/finalize", nil); code != 200 {
			t.Fatalf("finalize %s failed", name)
		}
	}
	code, body := get(t, ts.URL+"/v1/join?left=A&right=B")
	if code != 200 || body["cached"] != false {
		t.Fatalf("first join = %d %v, want uncached 200", code, body)
	}
	first := body["estimate"].(float64)
	code, body = get(t, ts.URL+"/v1/join?left=A&right=B")
	if code != 200 || body["cached"] != true {
		t.Fatalf("repeat join = %d %v, want cached 200", code, body)
	}
	if body["estimate"].(float64) != first {
		t.Fatalf("cached estimate %v != first %v", body["estimate"], first)
	}
	// The cache key is the unordered pair: the swapped query hits too.
	code, body = get(t, ts.URL+"/v1/join?left=B&right=A")
	if code != 200 || body["cached"] != true {
		t.Fatalf("swapped join = %d %v, want cached 200", code, body)
	}
	if body["estimate"].(float64) != first {
		t.Fatalf("swapped estimate %v != first %v", body["estimate"], first)
	}
	// Stats reflect the cache traffic.
	code, body = get(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("stats code %d", code)
	}
	qc := body["queryCache"].(map[string]any)
	if qc["size"].(float64) != 1 || qc["hits"].(float64) != 2 || qc["misses"].(float64) != 1 || qc["evictions"].(float64) != 0 {
		t.Fatalf("query cache stats = %v", qc)
	}
}

// TestServiceStreamCap: a request body above MaxStreamReports is
// rejected with 413 and leaves no partial state behind.
func TestServiceStreamCap(t *testing.T) {
	p := core.Params{K: 4, M: 64, Epsilon: 2}
	srv, err := NewWithOptions(p, 42, Options{MaxStreamReports: 100})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	data := make([]uint64, 101)
	if code, _ := post(t, ts.URL+"/v1/columns/A/reports", encodeColumn(t, p, 1, data)); code != 413 {
		t.Fatalf("oversized stream code %d, want 413", code)
	}
	if code, _ := get(t, ts.URL+"/v1/columns/A"); code != 404 {
		t.Fatalf("column exists after rejected stream (code %d)", code)
	}
	// At the cap exactly, the stream is accepted.
	if code, _ := post(t, ts.URL+"/v1/columns/A/reports", encodeColumn(t, p, 1, data[:100])); code != 200 {
		t.Fatal("stream at cap rejected")
	}
	// The cap is the per-request memory bound: it has no "off".
	if _, err := NewWithOptions(p, 42, Options{MaxStreamReports: -1}); err == nil || !strings.Contains(err.Error(), "MaxStreamReports") {
		t.Fatalf("MaxStreamReports -1: err = %v, want a startup refusal naming the option", err)
	}
}

// TestServiceConcurrentIngest hammers one column from many goroutines —
// with -race this exercises the handler/engine locking end to end.
func TestServiceConcurrentIngest(t *testing.T) {
	_, ts, p := testServer(t)
	const gateways, perGateway = 8, 2000
	data := dataset.Zipf(6, gateways*perGateway, 500, 1.2)

	var wg sync.WaitGroup
	for g := 0; g < gateways; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part := data[g*perGateway : (g+1)*perGateway]
			body := encodeColumn(t, p, int64(100+g), part)
			resp, err := http.Post(ts.URL+"/v1/columns/C/reports", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Errorf("gateway %d: %v", g, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("gateway %d: code %d", g, resp.StatusCode)
			}
		}(g)
	}
	wg.Wait()

	if code, _ := post(t, ts.URL+"/v1/columns/C/finalize", nil); code != 200 {
		t.Fatal("finalize failed")
	}
	code, body := get(t, ts.URL+"/v1/columns/C")
	if code != 200 || body["reports"].(float64) != gateways*perGateway {
		t.Fatalf("status = %d %v, want %d reports", code, body, gateways*perGateway)
	}
}

// TestServiceRefusesDepthBeyondWire: a depth the stream header's u16
// cannot carry is a startup error naming the wire bound, not a server
// that answers 400 "params do not match" to every report stream.
func TestServiceRefusesDepthBeyondWire(t *testing.T) {
	_, err := New(core.Params{K: protocol.MaxWireK + 1, M: 16, Epsilon: 4}, 42)
	if err == nil || !strings.Contains(err.Error(), "wire format") {
		t.Fatalf("k=%d: err = %v, want a startup error naming the wire bound", protocol.MaxWireK+1, err)
	}
}
