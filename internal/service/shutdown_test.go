package service

import (
	"bytes"
	"fmt"
	"io"
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
