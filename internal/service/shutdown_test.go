package service

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldpjoin/internal/dataset"
	"ldpjoin/internal/protocol"
)

// TestShutdownDuringIngest races Shutdown against clients posting to
// join and plus columns. Every request is answered 200 or the retryable
// 503, and a server reopened on the directory holds, per column, exactly
// the reports of its 200-acknowledged requests: a request that landed
// before its column's checkpoint cut is in the checkpoint, one that
// landed after it is in a segment the reopen replays, and one the closed
// store refused left nothing behind.
//
// Column X was registered by a request whose first append failed before
// the manifest named it. It has no durable record, so the checkpoint
// has nothing to cover, and X is absent after shutdown+reopen exactly as
// after kill+reopen.
func TestShutdownDuringIngest(t *testing.T) {
	const clients, perClient, perBody = 4, 300, 16
	dir, killed := t.TempDir(), t.TempDir()
	srv, ts := matrixServer(t, dir)
	defer ts.Close()

	// X's column directory would be col-1: a file in its place fails the
	// append before the manifest records the name.
	blocker := filepath.Join(dir, "col-1")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := post(t, ts.URL+"/v1/columns/X/reports", encodeAttrColumn(t, 0, 1, []uint64{1, 2, 3})); code != http.StatusInternalServerError {
		t.Fatalf("append into a blocked column directory: %d %v, want 500", code, out)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if code, out := get(t, ts.URL+"/v1/columns/X"); code != 200 || out["reports"].(float64) != 0 {
		t.Fatalf("X after its failed append: %d %v, want a registered column with 0 reports", code, out)
	}
	copyDataDir(t, dir, killed) // a kill at this moment

	// Pre-encoded bodies; client c's i-th request goes to column (c+i)%3.
	columns := []string{"J1", "J2", "P"}
	famS, _ := plusFams(mtParams)
	bodies := make([][][]byte, clients)
	for c := range bodies {
		for i := range perClient {
			seed := int64(1000*c + i)
			data := dataset.Zipf(seed, perBody, 200, 1.2)
			var body []byte
			if columns[(c+i)%3] == "P" {
				body = encodePlusStream(t, mtParams, protocol.PlusSample, perturbSample(mtParams, famS, seed, data))
			} else {
				body = encodeAttrColumn(t, 0, seed, data)
			}
			bodies[c] = append(bodies[c], body)
		}
	}

	var (
		mu     sync.Mutex
		acked  = map[string]int{}
		bad    []string
		landed atomic.Int64 // acknowledged requests so far
		wg     sync.WaitGroup
	)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, body := range bodies[c] {
				name := columns[(c+i)%3]
				resp, err := http.Post(ts.URL+"/v1/columns/"+name+"/reports", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					bad = append(bad, err.Error())
					mu.Unlock()
					return
				}
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					acked[name] += perBody
					landed.Add(1)
				case http.StatusServiceUnavailable:
				default:
					bad = append(bad, fmt.Sprintf("%s: %d %s", name, resp.StatusCode, msg))
				}
				mu.Unlock()
				if resp.StatusCode != http.StatusOK {
					return
				}
			}
		}()
	}

	// Shut down mid-ingest, with the clients still posting: once some
	// client has acknowledged requests to every column.
	for landed.Load() < 3*clients {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown during ingest: %v", err)
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("requests racing Shutdown were answered other than 200/503: %v", bad)
	}

	srv2, ts2 := matrixServer(t, dir)
	defer srv2.Close()
	defer ts2.Close()
	if rec := srv2.recovered; rec.Columns != int64(len(columns)) {
		t.Fatalf("reopen recovered %+v, want the %d columns with acknowledged reports", rec, len(columns))
	}
	for _, name := range columns {
		code, out := get(t, ts2.URL+"/v1/columns/"+name)
		if code != 200 || out["reports"].(float64) != float64(acked[name]) {
			t.Errorf("column %s after shutdown+reopen: %d %v, want %d acknowledged reports", name, code, out, acked[name])
		}
	}
	if code, out := get(t, ts2.URL+"/v1/columns/X"); code != http.StatusNotFound {
		t.Errorf("X after shutdown+reopen: %d %v, want 404", code, out)
	}

	srv3, ts3 := matrixServer(t, killed)
	defer srv3.Close()
	defer ts3.Close()
	if code, out := get(t, ts3.URL+"/v1/columns/X"); code != http.StatusNotFound {
		t.Errorf("X after kill+reopen: %d %v, want 404", code, out)
	}
}

// TestIdleShutdownRewritesNoCheckpoint: a column's checkpoint holds its
// whole state until a request lands, so a server reopened on a
// checkpointed directory and shut down without a request writes
// nothing — every ckpt-* file keeps its name, size and mtime — and one
// more request, or a WAL tail replayed after a crash, makes the next
// Shutdown checkpoint that column alone.
func TestIdleShutdownRewritesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1, p := durableServer(t, dir)
	for i, name := range []string{"A", "B"} {
		body := encodeColumn(t, p, int64(30+i), dataset.Zipf(int64(30+i), 2000, 200, 1.2))
		if code, out := post(t, ts1.URL+"/v1/columns/"+name+"/reports", body); code != 200 {
			t.Fatalf("ingest into %s: %d %v", name, code, out)
		}
	}
	ts1.Close()
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	before := checkpointFiles(t, dir)
	if len(before) != 2 {
		t.Fatalf("first shutdown left checkpoints %v, want one per column", before)
	}

	srv2, ts2, _ := durableServer(t, dir)
	ts2.Close()
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := srv2.st.Stats().Checkpoints; n != 0 {
		t.Errorf("idle shutdown cut %d checkpoints, want 0", n)
	}
	if after := checkpointFiles(t, dir); !maps.Equal(after, before) {
		t.Errorf("idle shutdown rewrote checkpoints:\nbefore %v\nafter  %v", before, after)
	}

	srv3, ts3, _ := durableServer(t, dir)
	if code, out := post(t, ts3.URL+"/v1/columns/A/reports", encodeColumn(t, p, 40, dataset.Zipf(40, 500, 200, 1.2))); code != 200 {
		t.Fatalf("ingest after reopen: %d %v", code, out)
	}
	ts3.Close()
	if err := srv3.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := srv3.st.Stats().Checkpoints; n != 1 {
		t.Errorf("shutdown after one request cut %d checkpoints, want 1", n)
	}
	after := checkpointFiles(t, dir)
	changed := 0
	for path, info := range after {
		if before[path] != info {
			changed++
		}
	}
	if len(after) != 2 || changed != 1 {
		t.Errorf("shutdown after a request to A: checkpoints %v (before %v), want A's replaced and B's kept", after, before)
	}

	// A WAL tail a crash left behind is work too: the reopen replays it,
	// and the next Shutdown checkpoints it although no request came.
	srv4, ts4, _ := durableServer(t, dir)
	if code, out := post(t, ts4.URL+"/v1/columns/B/reports", encodeColumn(t, p, 41, dataset.Zipf(41, 500, 200, 1.2))); code != 200 {
		t.Fatalf("ingest before the crash: %d %v", code, out)
	}
	crash(t, srv4, ts4)
	srv5, ts5, _ := durableServer(t, dir)
	ts5.Close()
	if err := srv5.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := srv5.st.Stats().Checkpoints; n != 1 {
		t.Errorf("shutdown after replaying B's WAL tail cut %d checkpoints, want 1", n)
	}
}

// checkpointFiles lists every ckpt-* file under a data directory with
// its size and modification time.
func checkpointFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "col-*", "ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(paths))
	for _, path := range paths {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = fmt.Sprintf("%d bytes, %v", info.Size(), info.ModTime().UnixNano())
	}
	return files
}
