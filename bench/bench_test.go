package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"ldpjoin/internal/core"
)

// smokeConfig is the benchmark at a few hundredths of its size, with a
// sketch small enough that the matrix column is nothing: every phase,
// check and metric runs, none of the numbers mean anything.
func smokeConfig() config {
	cfg := defaultConfig()
	cfg.params = core.Params{K: 5, M: 64, Epsilon: 4}
	cfg.cache = 256 // four shards of 64: the dash keys fit, a scan trial's do not
	cfg.joinA, cfg.joinB, cfg.plus = 24, 4, 6
	cfg.reports, cfg.domain = 400, 256
	cfg.probes, cfg.microReps = 100, 20
	bulk := ingestShape{name: "bulk", joinCols: 8, reportsPerRequest: 256, requests: 16}
	trickle := ingestShape{name: "trickle", joinCols: 22, plusCols: 10, reportsPerRequest: 16, requests: 320, checkpointBytes: 512}
	scan := queryShape{name: "scan", joins: 270, freqs: 300, chains: 2, plusJoins: 15}
	dash := queryShape{name: "dash", hot: true, joins: 300, freqs: 300, chains: 50, plusJoins: 50, admin: 50}
	for i := range cfg.workloads {
		wl := &cfg.workloads[i]
		wl.ingest, wl.query = bulk, scan
		switch wl.name {
		case "ingest-trickle":
			wl.ingest = trickle
		case "query-dash":
			wl.query = dash
		}
	}
	return cfg
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json against the tables the
// harness reports from: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	cfg := defaultConfig()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) != len(cfg.workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(m.Workloads), len(cfg.workloads))
	}
	for i, wl := range cfg.workloads {
		if got := m.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, got, wl.name, wl.why)
		}
		if !name.MatchString(wl.name) || len(wl.why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", wl.name)
		}
	}
	for _, pair := range []struct {
		what string
		got  []manifestMetric
		want []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(pair.got) != len(pair.want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", pair.what, len(pair.got), len(pair.want))
		}
		for i, d := range pair.want {
			if got := pair.got[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", pair.what, i, got, d)
			}
			if !name.MatchString(d.name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.name)
			}
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 || d.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %g must be in (0, 0.25] and no larger than setup_s's", d.name, d.bound)
		}
	}
}

// TestSmoke runs every workload untraced and traced at smoke scale and
// checks that each emits exactly the metrics BENCHMARK.json lists, that
// every output check passes, and that the workloads are what they claim:
// the scan shapes miss the query cache, the dash shape hits it, and the
// trickle shape's background checkpointer runs.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	cfg := smokeConfig()
	for _, wl := range m.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(cfg, wl.Name, 1, 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", wl.Name, traced, d.Name)
				case v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v %q, want a finite number of %q", wl.Name, d.Name, v.Value, v.Unit, d.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, d.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			value := func(name string) float64 { return res.Metrics[name].Value }
			if hit := value("service.cache_hit_ratio"); wl.Name == "query-dash" && hit <= 0.99 || wl.Name != "query-dash" && hit >= 0.05 {
				t.Errorf("%s: cache hit ratio %.4f: the workload is not what it claims", wl.Name, hit)
			}
			if wl.Name == "ingest-trickle" && value("store.background_checkpoints") < 3 {
				t.Errorf("%s: %v background checkpoints per trial, want at least 3", wl.Name, value("store.background_checkpoints"))
			}
			if value("store.checkpoint_errors") != 0 || value("harness.failed_share") != 0 {
				t.Errorf("%s: checkpoint errors %v, failed share %v", wl.Name, value("store.checkpoint_errors"), value("harness.failed_share"))
			}
			var spans []span
			data, err := os.ReadFile(filepath.Join(outDir, wl.Name+".trace.json"))
			if err == nil {
				err = json.Unmarshal(data, &spans)
			}
			if err != nil || len(spans) == 0 {
				t.Errorf("%s: trace file: %d spans, %v", wl.Name, len(spans), err)
			}
		}
	}
}

// TestSeedPinsTheCounts: the same seed gives the same inputs, so the
// metrics that are counts — not times — repeat exactly.
func TestSeedPinsTheCounts(t *testing.T) {
	cfg := smokeConfig()
	var runs [2]result
	for i := range runs {
		var err error
		if runs[i], err = runWorkload(cfg, "query-scan", 7, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"join_re_median", "wal_bytes_per_report"} {
		if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
			t.Errorf("%s: %v then %v on the same seed", name, a, b)
		}
	}
	if runs[0].Attempted != runs[1].Attempted {
		t.Errorf("attempted %d then %d on the same seed", runs[0].Attempted, runs[1].Attempted)
	}
}

// TestQuartilesMatchPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25], and the driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}
