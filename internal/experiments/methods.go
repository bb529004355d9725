package experiments

import (
	"math"
	"math/rand"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/ldp"
	"ldpjoin/internal/sketch"
)

// JoinTask is one join-estimation problem: two private columns over a
// shared candidate domain, with the exact answer attached for error
// computation.
type JoinTask struct {
	A      []uint64
	B      []uint64
	Domain uint64
	Truth  float64
}

// MethodParams bundles the knobs shared across methods, matching the
// paper's parameter list (§VII-A).
type MethodParams struct {
	K       int
	M       int
	Epsilon float64
	// SampleRate (r) and Theta (θ) configure LDPJoinSketch+. Theta is
	// clamped to core.ThetaFloor for the actual sample size.
	SampleRate float64
	Theta      float64
	// FLHPool is the number of public hash functions FLH draws from.
	FLHPool int
	// LiteralNT and MeanFI select the paper-literal LDPJoinSketch+
	// variants (ablation knobs).
	LiteralNT bool
	MeanFI    bool
}

// defaultParams mirrors the paper's defaults: k=18, m=1024, ε=4, r=0.1,
// θ=0.01 (clamped to the noise floor at run time), FLH pool of 512.
func defaultParams() MethodParams {
	return MethodParams{
		K: 18, M: 1024, Epsilon: 4,
		SampleRate: 0.1, Theta: 0.01,
		FLHPool: 512,
	}
}

func (p MethodParams) coreParams() core.Params {
	return core.Params{K: p.K, M: p.M, Epsilon: p.Epsilon}
}

// plusTheta clamps θ to the phase-1 noise floor for a population of n
// users (see core.ThetaFloor). At very small budgets the floor can
// exceed 1 — no threshold works there — so the result is capped at 0.5,
// which empties FI and lets LDPJoinSketch+ degrade gracefully to plain
// sketches over the phase-2 groups.
func (p MethodParams) plusTheta(n int) float64 {
	floor := core.ThetaFloor(p.Epsilon, int(p.SampleRate*float64(n)))
	return math.Min(0.5, math.Max(p.Theta, floor))
}

// RunResult is one method's outcome on one task.
type RunResult struct {
	Estimate float64
	Offline  time.Duration // collecting reports and constructing state
	Online   time.Duration // answering the join query
	CommBits float64       // total client→server bits
	Space    float64       // server-side summary bytes per attribute pair
}

// JoinMethod is a named join-size estimator in the evaluation.
type JoinMethod struct {
	Name    string
	Private bool
	Run     func(task JoinTask, p MethodParams, seed int64) RunResult
}

// AllMethods returns the evaluation lineup in the paper's order: the
// non-private fast-AGMS anchor, the three LDP baselines, and the two
// proposed methods.
func AllMethods() []JoinMethod {
	return []JoinMethod{
		MethodFAGMS(),
		MethodKRR(),
		MethodHCMS(),
		MethodFLH(),
		MethodLDPJoinSketch(),
		MethodPlus(),
	}
}

// SketchMethods returns the subset compared in the sketch-parameter
// sweeps (Figs 6 and 9).
func SketchMethods() []JoinMethod {
	return []JoinMethod{
		MethodFAGMS(),
		MethodHCMS(),
		MethodLDPJoinSketch(),
		MethodPlus(),
	}
}

// MethodFAGMS is the non-private fast-AGMS sketch ("FAGMS").
func MethodFAGMS() JoinMethod {
	return JoinMethod{
		Name: "FAGMS",
		Run: func(task JoinTask, p MethodParams, seed int64) RunResult {
			start := time.Now()
			fam := hashing.NewFamily(seed, p.K, p.M)
			sa := sketch.NewFastAGMS(fam)
			sa.UpdateAll(task.A)
			sb := sketch.NewFastAGMS(fam)
			sb.UpdateAll(task.B)
			offline := time.Since(start)
			start = time.Now()
			est := sa.InnerProduct(sb)
			return RunResult{
				Estimate: est,
				Offline:  offline,
				Online:   time.Since(start),
				CommBits: float64(len(task.A)+len(task.B)) * float64(ldp.BitsFor(task.Domain)),
				Space:    float64(2 * p.K * p.M * 8),
			}
		},
	}
}

// MethodKRR is k-ary randomized response with frequency-vector join.
func MethodKRR() JoinMethod {
	return JoinMethod{
		Name:    "k-RR",
		Private: true,
		Run: func(task JoinTask, p MethodParams, seed int64) RunResult {
			start := time.Now()
			ka := ldp.NewKRR(task.Domain, p.Epsilon)
			kb := ldp.NewKRR(task.Domain, p.Epsilon)
			rng := rand.New(rand.NewSource(seed))
			ka.Collect(task.A, rng)
			kb.Collect(task.B, rng)
			offline := time.Since(start)
			start = time.Now()
			est := ka.JoinSize(kb)
			return RunResult{
				Estimate: est,
				Offline:  offline,
				Online:   time.Since(start),
				CommBits: float64(len(task.A)+len(task.B)) * float64(ka.ReportBits()),
				Space:    float64(2 * 8 * task.Domain),
			}
		},
	}
}

// MethodHCMS is Apple's Hadamard count mean sketch with
// frequency-accumulation join.
func MethodHCMS() JoinMethod {
	return JoinMethod{
		Name:    "Apple-HCMS",
		Private: true,
		Run: func(task JoinTask, p MethodParams, seed int64) RunResult {
			start := time.Now()
			fam := hashing.NewFamily(seed, p.K, p.M)
			ha := ldp.NewHCMS(fam, p.Epsilon)
			hb := ldp.NewHCMS(fam, p.Epsilon)
			rng := rand.New(rand.NewSource(seed))
			ha.Collect(task.A, rng)
			hb.Collect(task.B, rng)
			ha.Finalize()
			hb.Finalize()
			offline := time.Since(start)
			start = time.Now()
			est := ha.JoinSize(hb, task.Domain)
			return RunResult{
				Estimate: est,
				Offline:  offline,
				Online:   time.Since(start),
				CommBits: float64(len(task.A)+len(task.B)) * float64(ha.ReportBits()),
				Space:    float64(2 * ha.SketchBytes()),
			}
		},
	}
}

// MethodFLH is fast local hashing with frequency-vector join.
func MethodFLH() JoinMethod {
	return JoinMethod{
		Name:    "FLH",
		Private: true,
		Run: func(task JoinTask, p MethodParams, seed int64) RunResult {
			start := time.Now()
			fa := ldp.NewFLH(seed, p.FLHPool, p.Epsilon)
			fb := ldp.NewFLH(seed^0x55, p.FLHPool, p.Epsilon)
			rng := rand.New(rand.NewSource(seed))
			fa.Collect(task.A, rng)
			fb.Collect(task.B, rng)
			offline := time.Since(start)
			start = time.Now()
			est := fa.JoinSize(fb, task.Domain)
			return RunResult{
				Estimate: est,
				Offline:  offline,
				Online:   time.Since(start),
				CommBits: float64(len(task.A)+len(task.B)) * float64(fa.ReportBits()),
				Space:    float64(2 * p.FLHPool * int(fa.G()) * 8),
			}
		},
	}
}

// MethodLDPJoinSketch is the paper's first contribution.
func MethodLDPJoinSketch() JoinMethod {
	return JoinMethod{
		Name:    "LDPJoinSketch",
		Private: true,
		Run: func(task JoinTask, p MethodParams, seed int64) RunResult {
			cp := p.coreParams()
			start := time.Now()
			fam := cp.NewFamily(seed)
			aggA := core.NewAggregator(cp, fam)
			aggB := core.NewAggregator(cp, fam)
			rng := rand.New(rand.NewSource(seed))
			aggA.CollectColumn(task.A, rng)
			aggB.CollectColumn(task.B, rng)
			skA := aggA.Finalize()
			skB := aggB.Finalize()
			offline := time.Since(start)
			start = time.Now()
			est := skA.JoinSize(skB)
			return RunResult{
				Estimate: est,
				Offline:  offline,
				Online:   time.Since(start),
				CommBits: float64(len(task.A)+len(task.B)) * float64(cp.ReportBits()),
				Space:    float64(2 * cp.SketchBytes()),
			}
		},
	}
}

// MethodPlus is LDPJoinSketch+ (the two-phase framework).
func MethodPlus() JoinMethod {
	return JoinMethod{
		Name:    "LDPJoinSketch+",
		Private: true,
		Run: func(task JoinTask, p MethodParams, seed int64) RunResult {
			opt := core.PlusOptions{
				Params:               p.coreParams(),
				SampleRate:           p.SampleRate,
				Theta:                p.plusTheta(min(len(task.A), len(task.B))),
				LiteralNTSubtraction: p.LiteralNT,
				MeanFI:               p.MeanFI,
				Seed:                 seed,
			}
			res := core.EstimateJoinPlus(task.A, task.B, task.Domain, opt)
			return RunResult{
				Estimate: res.Estimate,
				Offline:  res.BuildTime,
				Online:   res.EstimateTime,
				CommBits: float64(len(task.A)+len(task.B)) * float64(opt.Params.ReportBits()),
				// Phase-1 sketch plus two phase-2 sketches per attribute.
				Space: float64(2 * 3 * opt.Params.SketchBytes()),
			}
		},
	}
}
