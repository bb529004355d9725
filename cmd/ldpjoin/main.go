// Command ldpjoin runs a single private join-size estimation on a
// generated workload and reports the estimate against the exact answer;
// in federate mode it merges sketch snapshots pulled from several
// ldpjoind collectors and answers the join query over the federation;
// in loadtest mode it hammers a live ldpjoind's query API with a
// weighted concurrent mix and reports QPS and latency percentiles.
//
// Usage:
//
//	ldpjoin -dataset zipf1.1 -method plus -eps 4 -scale 0.005
//	ldpjoin -dataset movielens -method sketch -k 18 -m 1024
//	ldpjoin federate -peers http://a:8080,http://b:8080 -columns users,orders
//	ldpjoin loadtest -server http://a:8080 -concurrency 32 -duration 30s
//
// Methods: sketch (LDPJoinSketch), plus (LDPJoinSketch+), fagms
// (non-private fast-AGMS), krr, hcms, flh.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ldpjoin/internal/dataset"
	"ldpjoin/internal/experiments"
	"ldpjoin/internal/join"
	"ldpjoin/internal/metrics"
)

func main() {
	// The two server-facing modes return their failure instead of
	// exiting, so the tests that run them in-process fail by name; only
	// main turns an error into an exit status.
	if len(os.Args) > 1 && os.Args[1] == "federate" {
		if err := runFederate(os.Args[2:], os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "loadtest" {
		if err := runLoadtest(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	dsName := flag.String("dataset", "zipf1.1", "dataset name (see DESIGN.md Table II) or zipfA.B")
	method := flag.String("method", "sketch", "sketch|plus|fagms|krr|hcms|flh")
	eps := flag.Float64("eps", 4, "privacy budget epsilon")
	k := flag.Int("k", 18, "sketch depth (rows)")
	m := flag.Int("m", 1024, "sketch width (columns, power of two)")
	scale := flag.Float64("scale", 0.005, "fraction of the published dataset size")
	rate := flag.Float64("r", 0.1, "LDPJoinSketch+ phase-1 sampling rate")
	theta := flag.Float64("theta", 0.01, "LDPJoinSketch+ frequent-item threshold (clamped to the noise floor)")
	seed := flag.Int64("seed", 1, "protocol seed")
	flag.Parse()

	spec, err := dataset.ByName(*dsName)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generating %s at scale %.4g ...\n", spec.Name, *scale)
	a, b := spec.Pair(42, *scale)
	domain := spec.DomainAt(*scale)
	truth := join.Size(a, b)
	fmt.Printf("rows: %d + %d, domain: %d, exact join size: %.6g\n", len(a), len(b), domain, truth)

	methods := map[string]experiments.JoinMethod{
		"fagms":  experiments.MethodFAGMS(),
		"krr":    experiments.MethodKRR(),
		"hcms":   experiments.MethodHCMS(),
		"flh":    experiments.MethodFLH(),
		"sketch": experiments.MethodLDPJoinSketch(),
		"plus":   experiments.MethodPlus(),
	}
	jm, ok := methods[*method]
	if !ok {
		fatal(fmt.Errorf("unknown method %q", *method))
	}
	p := experiments.MethodParams{
		K: *k, M: *m, Epsilon: *eps,
		SampleRate: *rate, Theta: *theta, FLHPool: 512,
	}
	task := experiments.JoinTask{A: a, B: b, Domain: domain, Truth: truth}

	start := time.Now()
	res := jm.Run(task, p, *seed)
	fmt.Printf("\n%s estimate:  %.6g\n", jm.Name, res.Estimate)
	fmt.Printf("absolute error:   %.6g\n", metrics.AbsErr(truth, res.Estimate))
	fmt.Printf("relative error:   %.4f\n", metrics.RelErr(truth, res.Estimate))
	fmt.Printf("offline/online:   %s / %s (total %s)\n",
		res.Offline.Round(time.Microsecond), res.Online.Round(time.Microsecond),
		time.Since(start).Round(time.Microsecond))
	fmt.Printf("communication:    %.0f bits total from %d clients\n", res.CommBits, len(a)+len(b))
	fmt.Printf("server space:     %.1f KB\n", res.Space/1024)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldpjoin:", err)
	os.Exit(1)
}
