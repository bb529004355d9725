package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSummary(t *testing.T, dir, name string, s summary) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bench(ns float64) map[string]float64 {
	return map[string]float64{"n": 100, "ns/op": ns}
}

func TestGatePassesWithinBudget(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", summary{
		"ldpjoin/internal/kernel": {"BenchmarkFWHT": bench(1000)},
	})
	cur := writeSummary(t, dir, "cur.json", summary{
		"ldpjoin/internal/kernel": {"BenchmarkFWHT": bench(1100)}, // +10% < 15%
	})
	var out, errBuf bytes.Buffer
	if code := run([]string{"-baseline", base, cur}, nil, &out, &errBuf, false); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "benchgate: OK") {
		t.Fatalf("missing OK banner:\n%s", out.String())
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", summary{
		"p": {"BenchmarkDot": bench(1000)},
	})
	cur := writeSummary(t, dir, "cur.json", summary{
		"p": {"BenchmarkDot": bench(1200)}, // +20% > 15%
	})
	var out, errBuf bytes.Buffer
	if code := run([]string{"-baseline", base, cur}, nil, &out, &errBuf, false); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "REGRESSION p.BenchmarkDot") {
		t.Fatalf("missing regression report:\n%s", errBuf.String())
	}
}

func TestLenientDowngradesRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", summary{"p": {"B": bench(100)}})
	cur := writeSummary(t, dir, "cur.json", summary{"p": {"B": bench(500)}})
	var out, errBuf bytes.Buffer
	if code := run([]string{"-baseline", base, cur}, nil, &out, &errBuf, true); code != 0 {
		t.Fatalf("lenient exit %d, want 0", code)
	}
	if !strings.Contains(errBuf.String(), "BENCHGATE_LENIENT") {
		t.Fatalf("lenient run should still warn:\n%s", errBuf.String())
	}
}

func TestNewAndMissingBenchmarksSkip(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", summary{
		"p": {"BenchmarkOld": bench(100), "BenchmarkBoth": bench(100)},
	})
	cur := writeSummary(t, dir, "cur.json", summary{
		"p": {"BenchmarkNew": bench(999999), "BenchmarkBoth": bench(101)},
	})
	var out, errBuf bytes.Buffer
	if code := run([]string{"-baseline", base, cur}, nil, &out, &errBuf, false); code != 0 {
		t.Fatalf("exit %d, want 0 (new/missing must skip, not fail); stderr: %s", code, errBuf.String())
	}
	for _, want := range []string{"NEW   p.BenchmarkNew", "GONE  p.BenchmarkOld"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}
}

func TestTolerateCustomMaxRegress(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", summary{"p": {"B": bench(100)}})
	cur := writeSummary(t, dir, "cur.json", summary{"p": {"B": bench(140)}})
	var out, errBuf bytes.Buffer
	if code := run([]string{"-baseline", base, "-max-regress", "0.5", cur}, nil, &out, &errBuf, false); code != 0 {
		t.Fatalf("exit %d, want 0 with 50%% budget", code)
	}
	if code := run([]string{"-baseline", base, "-max-regress", "0.1", cur}, nil, &out, &errBuf, false); code != 1 {
		t.Fatalf("exit %d, want 1 with 10%% budget", code)
	}
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	good := writeSummary(t, dir, "good.json", summary{"p": {"B": bench(1)}})
	var out, errBuf bytes.Buffer
	if code := run([]string{"-baseline", filepath.Join(dir, "absent.json"), good}, nil, &out, &errBuf, false); code != 2 {
		t.Fatalf("missing baseline: exit %d, want 2", code)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-baseline", good, empty}, nil, &out, &errBuf, false); code != 2 {
		t.Fatalf("empty current: exit %d, want 2", code)
	}
}

func TestReadsCurrentFromStdin(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", summary{"p": {"B": bench(100)}})
	stdin := strings.NewReader(`{"p":{"B":{"n":10,"ns/op":105}}}`)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-baseline", base}, stdin, &out, &errBuf, false); code != 0 {
		t.Fatalf("stdin current: exit %d, want 0; stderr: %s", code, errBuf.String())
	}
}

// TestAllocsCeilingBlocksEvenWhenLenient: a baseline entry with
// "max allocs/op" gates the benchmark's allocation count, and — being
// deterministic — that gate does not soften under BENCHGATE_LENIENT.
func TestAllocsCeilingBlocksEvenWhenLenient(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", summary{
		"p": {
			"BenchmarkRecover": {"n": 10, "ns/op": 1000, "allocs/op": 344, maxAllocsKey: 400},
			"BenchmarkDecode":  {"n": 10, "ns/op": 1000, "allocs/op": 0, maxAllocsKey: 0},
			"BenchmarkUngated": {"n": 10, "ns/op": 1000, "allocs/op": 2},
		},
	})
	for _, tc := range []struct {
		name    string
		recover map[string]float64
		decode  map[string]float64
		want    int
		stderr  string
	}{
		{"under", map[string]float64{"ns/op": 1000, "allocs/op": 400}, map[string]float64{"ns/op": 1000, "allocs/op": 0}, 0, ""},
		{"over", map[string]float64{"ns/op": 1000, "allocs/op": 401}, map[string]float64{"ns/op": 1000, "allocs/op": 0}, 1,
			"ALLOCS p.BenchmarkRecover: 401 allocs/op, ceiling 400"},
		{"zero ceiling", map[string]float64{"ns/op": 1000, "allocs/op": 300}, map[string]float64{"ns/op": 1000, "allocs/op": 1}, 1,
			"ALLOCS p.BenchmarkDecode: 1 allocs/op, ceiling 0"},
		{"unreported", map[string]float64{"ns/op": 1000}, map[string]float64{"ns/op": 1000, "allocs/op": 0}, 1,
			"ALLOCS p.BenchmarkRecover: no allocs/op reported"},
	} {
		cur := writeSummary(t, dir, "cur.json", summary{
			"p": {
				"BenchmarkRecover": tc.recover,
				"BenchmarkDecode":  tc.decode,
				"BenchmarkUngated": {"ns/op": 1000, "allocs/op": 50}, // no ceiling: not gated
			},
		})
		for _, lenient := range []bool{false, true} {
			var out, errBuf bytes.Buffer
			if code := run([]string{"-baseline", base, cur}, nil, &out, &errBuf, lenient); code != tc.want {
				t.Fatalf("%s (lenient=%v): exit %d, want %d; stderr: %s", tc.name, lenient, code, tc.want, errBuf.String())
			}
			if !strings.Contains(errBuf.String(), tc.stderr) {
				t.Fatalf("%s: stderr %q lacks %q", tc.name, errBuf.String(), tc.stderr)
			}
		}
	}
}
