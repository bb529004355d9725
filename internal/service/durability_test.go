package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/protocol"
)

// durableServer starts a server persisting into dir, with the same
// params and seed as testServer so streams are interchangeable between
// durable and in-memory servers.
func durableServer(t *testing.T, dir string) (*Server, *httptest.Server, core.Params) {
	t.Helper()
	p := core.Params{K: 9, M: 512, Epsilon: 4}
	srv, err := NewWithOptions(p, 42, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts, p
}

// crash kills a durable server the hard way: no Shutdown, no
// checkpoint. The store is released so the test process does not leak
// file handles, but nothing is written that a real crash would not have
// written — recovery must come from the WAL alone.
func crash(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	if err := srv.st.Close(); err != nil {
		t.Fatal(err)
	}
}

// mergeSnapshot builds an unfinalized snapshot of clientSeed-perturbed
// values, encoded for POST /merge.
func mergeSnapshot(t *testing.T, p core.Params, clientSeed int64, values []uint64) []byte {
	t.Helper()
	fam := p.NewFamily(42)
	agg := core.NewAggregator(p, fam)
	rng := rand.New(rand.NewSource(clientSeed))
	for _, v := range values {
		agg.Add(core.Perturb(v, p, fam, rng))
	}
	enc, err := protocol.EncodeSnapshot(protocol.SnapshotOfAggregator(agg))
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// fetchSketch exports a finalized column's sketch bytes.
func fetchSketch(t *testing.T, base, column string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/columns/" + column + "/sketch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("exporting %s: %d %v", column, resp.StatusCode, err)
	}
	return data
}

// scrape returns the /metrics page of the server at base.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d, %v", resp.StatusCode, err)
	}
	return string(page)
}

// TestCrashRecoveryWALReplay is the acceptance test of the WAL path:
// kill a durable server after N acknowledged reports (and a federated
// merge), reopen the same data directory, finalize — the recovered
// sketches must be byte-identical to an uninterrupted in-memory run fed
// the same streams.
func TestCrashRecoveryWALReplay(t *testing.T) {
	const n, domain = 8000, 500
	dir := t.TempDir()
	srv1, ts1, p := durableServer(t, dir)

	da := dataset.Zipf(1, n, domain, 1.2)
	db := dataset.Zipf(2, n, domain, 1.2)
	streamA1 := encodeColumn(t, p, 10, da[:n/2])
	streamA2 := encodeColumn(t, p, 11, da[n/2:])
	streamB := encodeColumn(t, p, 12, db)
	merge := mergeSnapshot(t, p, 13, da[:200])

	for url, body := range map[string][]byte{
		ts1.URL + "/v1/columns/A/reports": streamA1,
		ts1.URL + "/v1/columns/B/reports": streamB,
	} {
		if code, out := post(t, url, body); code != 200 {
			t.Fatalf("ingest %s: %d %v", url, code, out)
		}
	}
	if code, out := post(t, ts1.URL+"/v1/columns/A/reports", streamA2); code != 200 {
		t.Fatalf("second A batch: %d %v", code, out)
	}
	if code, out := post(t, ts1.URL+"/v1/columns/A/merge", merge); code != 200 {
		t.Fatalf("merge: %d %v", code, out)
	}
	crash(t, srv1, ts1)

	// Reopen the directory: the WAL replays through the operations.
	srv2, ts2, _ := durableServer(t, dir)
	defer srv2.Close()
	defer ts2.Close()
	if code, body := get(t, ts2.URL+"/v1/columns/A"); code != 200 ||
		body["state"] != "collecting" || body["reports"].(float64) != n+200 {
		t.Fatalf("recovered A status: %d %v", code, body)
	}
	_, stats := get(t, ts2.URL+"/v1/stats")
	rec := stats["durability"].(map[string]any)["recovered"].(map[string]any)
	if rec["columns"].(float64) != 2 || rec["reports"].(float64) != 2*n || rec["merges"].(float64) != 1 {
		t.Fatalf("recovered counters: %v", rec)
	}
	// The same recovery is a scrape: what replayed, and how long it took.
	page := scrape(t, ts2.URL)
	for _, want := range []string{
		fmt.Sprintf("\nldpjoin_recovery_reports_total %d\n", 2*n),
		"\nldpjoin_recovery_checkpoints_total 0\n",
		"\nldpjoin_recovery_truncated_tails_total 0\n",
		"\nldpjoin_recovery_seconds ",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics after recovery lacks %q", want)
		}
	}
	if strings.Contains(page, "\nldpjoin_recovery_seconds 0\n") {
		t.Fatal("/metrics reports a recovery that took no time")
	}
	for _, col := range []string{"A", "B"} {
		if code, out := post(t, ts2.URL+"/v1/columns/"+col+"/finalize", nil); code != 200 {
			t.Fatalf("finalize %s after recovery: %d %v", col, code, out)
		}
	}
	gotA := fetchSketch(t, ts2.URL, "A")
	gotB := fetchSketch(t, ts2.URL, "B")

	// Reference: an uninterrupted in-memory run over the same streams.
	_, tsRef, _ := testServer(t)
	for _, in := range []struct {
		col  string
		body []byte
	}{
		{"A", streamA1}, {"A", streamA2}, {"B", streamB},
	} {
		if code, _ := post(t, tsRef.URL+"/v1/columns/"+in.col+"/reports", in.body); code != 200 {
			t.Fatalf("reference ingest %s failed", in.col)
		}
	}
	if code, _ := post(t, tsRef.URL+"/v1/columns/A/merge", merge); code != 200 {
		t.Fatal("reference merge failed")
	}
	for _, col := range []string{"A", "B"} {
		if code, _ := post(t, tsRef.URL+"/v1/columns/"+col+"/finalize", nil); code != 200 {
			t.Fatalf("reference finalize %s failed", col)
		}
	}
	if !bytes.Equal(gotA, fetchSketch(t, tsRef.URL, "A")) {
		t.Fatal("recovered sketch A is not byte-identical to the uninterrupted run")
	}
	if !bytes.Equal(gotB, fetchSketch(t, tsRef.URL, "B")) {
		t.Fatal("recovered sketch B is not byte-identical to the uninterrupted run")
	}

	// Finalized state is durable too: crash again, reopen, and the
	// sketches come back finalized with the same bytes, queryable.
	crash(t, srv2, ts2)
	srv3, ts3, _ := durableServer(t, dir)
	defer srv3.Close()
	defer ts3.Close()
	if code, body := get(t, ts3.URL+"/v1/columns/A"); code != 200 || body["state"] != "finalized" {
		t.Fatalf("A after second crash: %d %v", code, body)
	}
	if !bytes.Equal(fetchSketch(t, ts3.URL, "A"), gotA) {
		t.Fatal("finalized sketch changed across restart")
	}
	if code, body := get(t, ts3.URL+"/v1/join?left=A&right=B"); code != 200 {
		t.Fatalf("join after recovery: %d %v", code, body)
	}
}

// TestCrashRecoveryCheckpointRestore is the acceptance test of the
// checkpoint path: a graceful shutdown checkpoints collecting state and
// retires the WAL; more reports after a restart land in fresh WAL
// segments; a crash then recovers checkpoint + WAL — and the finalized
// sketch is byte-identical to an uninterrupted run of the whole stream.
func TestCrashRecoveryCheckpointRestore(t *testing.T) {
	const n, domain = 6000, 400
	dir := t.TempDir()
	da := dataset.Zipf(3, n, domain, 1.2)

	srv1, ts1, p := durableServer(t, dir)
	streamA1 := encodeColumn(t, p, 20, da[:n/2])
	streamA2 := encodeColumn(t, p, 21, da[n/2:])
	if code, _ := post(t, ts1.URL+"/v1/columns/A/reports", streamA1); code != 200 {
		t.Fatal("ingest failed")
	}
	ts1.Close()
	if err := srv1.Shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	srv2, ts2, _ := durableServer(t, dir)
	_, stats := get(t, ts2.URL+"/v1/stats")
	rec := stats["durability"].(map[string]any)["recovered"].(map[string]any)
	if rec["checkpoints"].(float64) != 1 || rec["reports"].(float64) != 0 {
		t.Fatalf("checkpoint recovery counters: %v (want the WAL retired in favor of the checkpoint)", rec)
	}
	if code, body := get(t, ts2.URL+"/v1/columns/A"); code != 200 || body["reports"].(float64) != n/2 {
		t.Fatalf("A after checkpoint restore: %d %v", code, body)
	}
	if code, _ := post(t, ts2.URL+"/v1/columns/A/reports", streamA2); code != 200 {
		t.Fatal("post-restart ingest failed")
	}
	crash(t, srv2, ts2)

	srv3, ts3, _ := durableServer(t, dir)
	defer srv3.Close()
	defer ts3.Close()
	_, stats = get(t, ts3.URL+"/v1/stats")
	rec = stats["durability"].(map[string]any)["recovered"].(map[string]any)
	if rec["checkpoints"].(float64) != 1 || rec["reports"].(float64) != n/2 {
		t.Fatalf("checkpoint+WAL recovery counters: %v", rec)
	}
	if code, _ := post(t, ts3.URL+"/v1/columns/A/finalize", nil); code != 200 {
		t.Fatal("finalize after mixed recovery failed")
	}
	got := fetchSketch(t, ts3.URL, "A")

	_, tsRef, _ := testServer(t)
	for _, body := range [][]byte{streamA1, streamA2} {
		if code, _ := post(t, tsRef.URL+"/v1/columns/A/reports", body); code != 200 {
			t.Fatal("reference ingest failed")
		}
	}
	if code, _ := post(t, tsRef.URL+"/v1/columns/A/finalize", nil); code != 200 {
		t.Fatal("reference finalize failed")
	}
	if !bytes.Equal(got, fetchSketch(t, tsRef.URL, "A")) {
		t.Fatal("checkpoint-restored sketch is not byte-identical to the uninterrupted run")
	}
}

// TestFinalizeAckIsDurable: an acknowledged finalize is durable the
// moment it is acknowledged, although the column's log is still being
// retired behind it. A copy of the data dir taken right after the ack,
// before Close and with the retirement possibly mid-way, opens as a
// server that serves the same sketch bytes and refuses more reports.
func TestFinalizeAckIsDurable(t *testing.T) {
	const n, domain = 6000, 400
	dir, crashed := t.TempDir(), t.TempDir()
	srv1, ts1, p := durableServer(t, dir)
	defer srv1.Close()
	defer ts1.Close()
	stream := encodeColumn(t, p, 30, dataset.Zipf(4, n, domain, 1.2))
	if code, out := post(t, ts1.URL+"/v1/columns/A/reports", stream); code != 200 {
		t.Fatalf("ingest: %d %v", code, out)
	}
	if code, out := post(t, ts1.URL+"/v1/columns/A/finalize", nil); code != 200 {
		t.Fatalf("finalize: %d %v", code, out)
	}
	copyDataDir(t, dir, crashed)
	want := fetchSketch(t, ts1.URL, "A")

	srv2, ts2, _ := durableServer(t, crashed)
	defer srv2.Close()
	defer ts2.Close()
	if !bytes.Equal(fetchSketch(t, ts2.URL, "A"), want) {
		t.Fatal("sketch recovered from the copy differs from the acknowledged one")
	}
	_, stats := get(t, ts2.URL+"/v1/stats")
	if rec := stats["durability"].(map[string]any)["recovered"].(map[string]any); rec["finalizedColumns"].(float64) != 1 {
		t.Fatalf("recovered counters: %v, want one finalized column", rec)
	}
	code, out := post(t, ts2.URL+"/v1/columns/A/reports", stream)
	if env, _ := out["error"].(map[string]any); code != http.StatusConflict || env["code"] != codeFinalized {
		t.Fatalf("reports after recovered finalize: %d %v, want 409 %s", code, out, codeFinalized)
	}
}

// copyDataDir copies a live data dir, leaving out the advisory lock and
// any file deleted while the copy runs — what a crash at that moment
// would have left on disk.
func copyDataDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		target := filepath.Join(dst, strings.TrimPrefix(path, src))
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if d.Name() == "LOCK" {
			return nil
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDurableRejectsMismatchedDir pins the fingerprint check: a data
// directory written under one configuration refuses to open under
// another instead of replaying unmergeable state.
func TestDurableRejectsMismatchedDir(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1, _ := durableServer(t, dir)
	ts1.Close()
	srv1.Close()
	p := core.Params{K: 9, M: 512, Epsilon: 4}
	if _, err := NewWithOptions(p, 43, Options{DataDir: dir}); err == nil {
		t.Fatal("seed mismatch opened the data dir")
	}
	p.Epsilon = 2
	if _, err := NewWithOptions(p, 42, Options{DataDir: dir}); err == nil {
		t.Fatal("params mismatch opened the data dir")
	}
}
