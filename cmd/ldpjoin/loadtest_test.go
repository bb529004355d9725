package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/service"
)

// TestLoadtestEndToEnd runs the loadtest mode against an in-process
// ldpjoind: it must seed and finalize the column family, drive the
// query mix without errors, and leave cache traffic behind in
// /v1/stats. A second run must detect the finalized columns and skip
// seeding (finalized state is immutable, so reruns measure steady
// state).
func TestLoadtestEndToEnd(t *testing.T) {
	p := core.Params{K: 5, M: 128, Epsilon: 4}
	srv, err := service.New(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	args := []string{
		"-server", ts.URL, "-concurrency", "4", "-duration", "250ms",
		"-reports", "400", "-values", "32",
		"-k", "5", "-m", "128", "-eps", "4", "-seed", "7",
	}
	if err := runLoadtest(args); err != nil {
		t.Fatal(err)
	}

	// Every seeded column is finalized.
	for _, name := range []string{"lt_a", "lt_b", "lt_ab", "lt_c"} {
		resp, err := http.Get(ts.URL + "/v1/columns/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var status map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || status["state"] != "finalized" {
			t.Fatalf("column %s after loadtest: %d %v", name, resp.StatusCode, status)
		}
	}

	// The mix actually queried: the cache saw hits and misses.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	qc := stats["queryCache"].(map[string]any)
	if qc["hits"].(float64) == 0 || qc["misses"].(float64) == 0 {
		t.Fatalf("loadtest produced no cache traffic: %v", qc)
	}

	// Rerun: seeding is skipped (no 409s from double finalize), the mix
	// still runs clean.
	if err := runLoadtest(args); err != nil {
		t.Fatal(err)
	}
}
