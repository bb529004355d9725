// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark per artifact; the experiment index is the
// registry in internal/experiments/registry.go) plus ablation and micro
// benchmarks. The per-artifact
// benches run the full experiment at the tiny scale and attach the
// headline error metrics via b.ReportMetric, so `go test -bench` output
// carries the paper-shape numbers; cmd/experiments prints the full
// tables at larger scales.
package ldpjoin_test

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"ldpjoin"
	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/experiments"
	"ldpjoin/internal/join"
)

// runArtifact executes one experiment per iteration and reports the mean
// of the named numeric columns from the last run's tables.
func runArtifact(b *testing.B, id string, metricCols ...string) {
	b.Helper()
	runner, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var tabs []*experiments.Table
	for i := 0; i < b.N; i++ {
		tabs = runner(experiments.ScaleTiny)
	}
	for _, col := range metricCols {
		if v, ok := columnMean(tabs, col); ok {
			b.ReportMetric(v, col)
		}
	}
}

// columnMean averages every parseable cell of the named column across
// tables.
func columnMean(tabs []*experiments.Table, col string) (float64, bool) {
	var sum float64
	var n int
	for _, t := range tabs {
		idx := -1
		for i, c := range t.Columns {
			if c == col {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		for _, row := range t.Rows {
			if v, err := strconv.ParseFloat(row[idx], 64); err == nil {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// --- One benchmark per paper artifact -------------------------------

func BenchmarkTable2Datasets(b *testing.B) { runArtifact(b, "table2") }

func BenchmarkFig5Accuracy(b *testing.B) {
	runArtifact(b, "fig5", "LDPJoinSketch", "LDPJoinSketch+", "FAGMS", "k-RR")
}

func BenchmarkFig6SpaceCost(b *testing.B) { runArtifact(b, "fig6", "AE") }

func BenchmarkFig7Communication(b *testing.B) {
	runArtifact(b, "fig7", "LDPJoinSketch", "k-RR")
}

func BenchmarkFig8Epsilon(b *testing.B) {
	runArtifact(b, "fig8", "LDPJoinSketch", "LDPJoinSketch+")
}

func BenchmarkFig9SketchSize(b *testing.B) {
	runArtifact(b, "fig9", "LDPJoinSketch", "LDPJoinSketch+")
}

func BenchmarkFig10SampleRate(b *testing.B) { runArtifact(b, "fig10", "AE") }

func BenchmarkFig11Threshold(b *testing.B) { runArtifact(b, "fig11", "AE") }

func BenchmarkFig12Skewness(b *testing.B) {
	runArtifact(b, "fig12", "LDPJoinSketch", "LDPJoinSketch+")
}

func BenchmarkFig13Efficiency(b *testing.B) {
	runArtifact(b, "fig13", "offline_s", "online_s")
}

func BenchmarkFig14Frequency(b *testing.B) {
	runArtifact(b, "fig14", "LDPJoinSketch", "Apple-HCMS")
}

func BenchmarkFig15Multiway(b *testing.B) {
	runArtifact(b, "fig15", "LDPJoinSketch(3way)", "Compass(3way)")
}

// --- Ablation benchmarks (each names the design choice it measures) ---

// BenchmarkAblationNTSubtraction compares the paper-literal Algorithm 5
// non-target subtraction (population counts) against the group-scaled
// variant the library defaults to.
func BenchmarkAblationNTSubtraction(b *testing.B) {
	task := experiments.ZipfTask(1.1, experiments.ScaleSmall)
	for _, variant := range []struct {
		name    string
		literal bool
	}{{"group-scaled", false}, {"literal", true}} {
		b.Run(variant.name, func(b *testing.B) {
			p := experiments.MethodParams{
				K: 18, M: 1024, Epsilon: 4,
				SampleRate: 0.1, Theta: 0.01, FLHPool: 512,
				LiteralNT: variant.literal,
			}
			plus := experiments.MethodPlus()
			var ae float64
			for i := 0; i < b.N; i++ {
				res := plus.Run(task, p, int64(9000+i))
				ae = abs(res.Estimate - task.Truth)
			}
			b.ReportMetric(ae/task.Truth, "RE")
		})
	}
}

// BenchmarkAblationFIEstimator compares median-based frequent-item
// extraction (default) against the paper-literal Theorem 7 mean, whose
// heavy-tailed noise floods FI with collision-spike false positives.
func BenchmarkAblationFIEstimator(b *testing.B) {
	task := experiments.ZipfTask(1.1, experiments.ScaleSmall)
	for _, variant := range []struct {
		name string
		mean bool
	}{{"median", false}, {"mean", true}} {
		b.Run(variant.name, func(b *testing.B) {
			p := experiments.MethodParams{
				K: 18, M: 1024, Epsilon: 4,
				SampleRate: 0.1, Theta: 0.01, FLHPool: 512,
				MeanFI: variant.mean,
			}
			plus := experiments.MethodPlus()
			var ae float64
			for i := 0; i < b.N; i++ {
				res := plus.Run(task, p, int64(9100+i))
				ae = abs(res.Estimate - task.Truth)
			}
			b.ReportMetric(ae/task.Truth, "RE")
		})
	}
}

// BenchmarkAblationRowAggregation compares the paper's median-of-rows
// join estimator (Eq 5) against a mean-of-rows variant.
func BenchmarkAblationRowAggregation(b *testing.B) {
	task := experiments.ZipfTask(1.3, experiments.ScaleSmall)
	p := core.Params{K: 18, M: 1024, Epsilon: 4}
	fam := p.NewFamily(1)
	aggA := core.NewAggregator(p, fam)
	aggA.CollectColumn(task.A, rand.New(rand.NewSource(2)))
	aggB := core.NewAggregator(p, fam)
	aggB.CollectColumn(task.B, rand.New(rand.NewSource(3)))
	skA, skB := aggA.Finalize(), aggB.Finalize()
	b.Run("median", func(b *testing.B) {
		var est float64
		for i := 0; i < b.N; i++ {
			est = skA.JoinSize(skB)
		}
		b.ReportMetric(abs(est-task.Truth)/task.Truth, "RE")
	})
	b.Run("mean", func(b *testing.B) {
		var est float64
		for i := 0; i < b.N; i++ {
			est = skA.JoinSizeMean(skB)
		}
		b.ReportMetric(abs(est-task.Truth)/task.Truth, "RE")
	})
}

// BenchmarkAblationClientEncoding compares the O(1) client (Hadamard
// entry oracle) against the literal Algorithm 1 transcription that
// materializes the length-m vector and transforms it.
func BenchmarkAblationClientEncoding(b *testing.B) {
	p := core.Params{K: 18, M: 1024, Epsilon: 4}
	fam := p.NewFamily(1)
	b.Run("oracle", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			core.Perturb(uint64(i), p, fam, rng)
		}
	})
	b.Run("literal", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			core.PerturbLiteral(uint64(i), p, fam, rng)
		}
	})
}

// BenchmarkAblationParallelBuild compares single-threaded and
// all-core simulated sketch construction (core.Collect).
func BenchmarkAblationParallelBuild(b *testing.B) {
	p := core.Params{K: 18, M: 1024, Epsilon: 4}
	fam := p.NewFamily(1)
	data := dataset.Zipf(1, 200000, 20000, 1.3)
	b.Run("shards-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Collect(p, fam, data, 7, 1)
		}
	})
	b.Run("shards-auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Collect(p, fam, data, 7, runtime.GOMAXPROCS(0))
		}
	})
}

// --- Micro benchmarks on the public facade ---------------------------

func BenchmarkClientReport(b *testing.B) {
	proto, err := ldpjoin.NewProtocol(ldpjoin.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cli := proto.NewClient(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli.Report(uint64(i))
	}
}

func BenchmarkAggregatorAdd(b *testing.B) {
	proto, err := ldpjoin.NewProtocol(ldpjoin.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	agg := proto.NewAggregator()
	cli := proto.NewClient(1)
	r := cli.Report(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Add(r)
	}
}

func BenchmarkSketchJoinSize(b *testing.B) {
	proto, err := ldpjoin.NewProtocol(ldpjoin.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	data := dataset.Zipf(1, 50000, 5000, 1.3)
	skA := proto.BuildSketch(data, 1)
	skB := proto.BuildSketch(data, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := skA.JoinSize(skB); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchFrequency(b *testing.B) {
	proto, err := ldpjoin.NewProtocol(ldpjoin.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sk := proto.BuildSketch(dataset.Zipf(1, 50000, 5000, 1.3), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Frequency(uint64(i % 5000))
	}
}

func BenchmarkJoinSizePlusEndToEnd(b *testing.B) {
	da := dataset.Zipf(1, 100000, 5000, 1.2)
	db := dataset.Zipf(2, 100000, 5000, 1.2)
	truth := join.Size(da, db)
	cfg := ldpjoin.PlusConfig{
		Config:     ldpjoin.Config{K: 18, M: 1024, Epsilon: 4, Seed: 1},
		SampleRate: 0.1,
		Theta:      0.05,
	}
	var re float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := ldpjoin.JoinSizePlus(da, db, 5000, cfg)
		if err != nil {
			b.Fatal(err)
		}
		re = abs(res.Estimate-truth) / truth
	}
	b.ReportMetric(re, "RE")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
