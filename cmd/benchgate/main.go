// Command benchgate is the CI perf-regression gate: it compares a
// distilled benchmark summary (the benchdistill output format —
// package → benchmark → {n, ns/op, ...}) against a committed baseline
// and fails when any benchmark's ns/op slid past the allowed budget.
//
//	go test -json -bench=. ./... | benchdistill > BENCH_now.json
//	benchgate -baseline BENCH_baseline.json BENCH_now.json
//
// A benchmark present on only one side is reported and skipped, never
// failed: new benchmarks have no baseline yet, and deleted ones are a
// review concern, not a perf one. Setting BENCHGATE_LENIENT in the
// environment downgrades regressions to warnings (exit 0) — CI's
// shared runners are far too noisy for a single-iteration smoke run to
// be a hard gate, so there the gate documents the drift and the
// committed baseline is refreshed deliberately from a quiet machine.
//
// Allocation counts are the exception: they do not depend on how busy
// the runner is. A baseline entry that carries "max allocs/op" sets a
// ceiling on the benchmark's allocs/op, and going over it — or no longer
// reporting allocations at all — fails the gate even under
// BENCHGATE_LENIENT.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// summary is benchdistill's output shape: package → benchmark →
// metric → value.
type summary map[string]map[string]map[string]float64

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr, os.Getenv("BENCHGATE_LENIENT") != ""))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer, lenient bool) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline summary to gate against")
	maxRegress := fs.Float64("max-regress", 0.15, "maximum tolerated fractional ns/op increase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	currentPath := "-"
	if fs.NArg() > 0 {
		currentPath = fs.Arg(0)
	}

	base, err := load(*baselinePath, stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: baseline: %v\n", err)
		return 2
	}
	cur, err := load(currentPath, stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: current: %v\n", err)
		return 2
	}

	regressions, overAllocs := compare(base, cur, *maxRegress, stdout)
	if len(regressions)+len(overAllocs) == 0 {
		fmt.Fprintln(stdout, "benchgate: OK")
		return 0
	}
	for _, r := range regressions {
		fmt.Fprintf(stderr, "benchgate: REGRESSION %s\n", r)
	}
	for _, a := range overAllocs {
		fmt.Fprintf(stderr, "benchgate: ALLOCS %s\n", a)
	}
	if len(overAllocs) > 0 {
		fmt.Fprintf(stderr, "benchgate: %d benchmark(s) over their allocs/op ceiling (deterministic: never lenient)\n", len(overAllocs))
		return 1
	}
	if lenient {
		fmt.Fprintf(stderr, "benchgate: BENCHGATE_LENIENT set; %d regression(s) reported as warnings\n", len(regressions))
		return 0
	}
	fmt.Fprintf(stderr, "benchgate: %d benchmark(s) regressed more than %.0f%% ns/op\n", len(regressions), *maxRegress*100)
	return 1
}

// load reads a distilled summary from path, or from stdin when path is
// "-".
func load(path string, stdin io.Reader) (summary, error) {
	var r io.Reader = stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var s summary
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return s, nil
}

// maxAllocsKey is the baseline-only metric that puts a blocking ceiling
// on a benchmark's allocs/op.
const maxAllocsKey = "max allocs/op"

// compare walks the union of (package, benchmark) keys, prints one
// line per comparable benchmark, and returns the descriptions of those
// whose ns/op grew beyond maxRegress and of those over the allocs/op
// ceiling their baseline entry sets.
func compare(base, cur summary, maxRegress float64, out io.Writer) (regressions, overAllocs []string) {
	for _, pkg := range sortedKeys(union(base, cur)) {
		bb, cb := base[pkg], cur[pkg]
		for _, name := range sortedKeys(union(bb, cb)) {
			baseNs, baseOK := metric(bb, name)
			curNs, curOK := metric(cb, name)
			switch {
			case !baseOK && !curOK:
				// Present but without ns/op on either side (shouldn't
				// happen with benchdistill output) — nothing to gate.
			case !baseOK:
				fmt.Fprintf(out, "  NEW   %s.%s  %.0f ns/op (no baseline; skipped)\n", pkg, name, curNs)
			case !curOK:
				fmt.Fprintf(out, "  GONE  %s.%s  (in baseline, not in current run; skipped)\n", pkg, name)
			default:
				delta := curNs/baseNs - 1
				verdict := "ok"
				if delta > maxRegress {
					verdict = "REGRESS"
					regressions = append(regressions,
						fmt.Sprintf("%s.%s: %.0f -> %.0f ns/op (%+.1f%%, budget %.0f%%)",
							pkg, name, baseNs, curNs, delta*100, maxRegress*100))
				}
				fmt.Fprintf(out, "  %-7s %s.%s  %.0f -> %.0f ns/op (%+.1f%%)\n", verdict, pkg, name, baseNs, curNs, delta*100)
			}
			if ceiling, gated := bb[name][maxAllocsKey]; gated && curOK {
				allocs, reported := cb[name]["allocs/op"]
				switch {
				case !reported:
					overAllocs = append(overAllocs, fmt.Sprintf("%s.%s: no allocs/op reported (ceiling %.0f)", pkg, name, ceiling))
				case allocs > ceiling:
					overAllocs = append(overAllocs, fmt.Sprintf("%s.%s: %.0f allocs/op, ceiling %.0f", pkg, name, allocs, ceiling))
				default:
					fmt.Fprintf(out, "  allocs  %s.%s  %.0f allocs/op (ceiling %.0f)\n", pkg, name, allocs, ceiling)
				}
			}
		}
	}
	return regressions, overAllocs
}

// metric fetches a benchmark's ns/op from one package's results.
func metric(pkg map[string]map[string]float64, name string) (float64, bool) {
	m, ok := pkg[name]
	if !ok {
		return 0, false
	}
	ns, ok := m["ns/op"]
	return ns, ok
}

// union collects the keys of two maps (generic over the value types
// actually used above).
func union[V any](a, b map[string]V) map[string]struct{} {
	keys := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		keys[k] = struct{}{}
	}
	for k := range b {
		keys[k] = struct{}{}
	}
	return keys
}

func sortedKeys(m map[string]struct{}) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
