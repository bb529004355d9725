package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"ldpjoin/internal/ldp"
)

// ThetaFloor returns the smallest frequent-item threshold θ that keeps
// phase-1 selection above the LDP noise floor for a sample of sampleSize
// users: the median-of-rows frequency estimate carries noise with std
// ≈ 1.25·c_ε·sqrt(n_s), and θ·n_s should clear about six of those σ or a
// large candidate domain floods FI with false positives (the degradation
// the paper reports for tiny θ in Fig 11). Experiments at reduced scale
// clamp their θ to this floor.
func ThetaFloor(eps float64, sampleSize int) float64 {
	if sampleSize <= 0 {
		return 1
	}
	return 7.5 * ldp.CEpsilon(eps) / math.Sqrt(float64(sampleSize))
}

// PlusOptions configures LDPJoinSketch+ (Algorithm 3).
type PlusOptions struct {
	Params
	// SampleRate is r, the fraction of each population that answers in
	// phase 1.
	SampleRate float64
	// Theta is θ, the frequency-share threshold separating high- and
	// low-frequency items: FI_X = {d : f̃_X(d) > θ·|S_X|}.
	Theta float64
	// LiteralNTSubtraction selects the paper's literal Algorithm 5, which
	// subtracts the population-level non-target count from the group
	// sketches. The default (false) scales the count to the group that
	// actually built each sketch, which is what Theorem 8 calls for — see
	// BenchmarkAblationNTSubtraction in the module root's bench_test.go.
	LiteralNTSubtraction bool
	// MeanFI selects the Theorem 7 mean estimator for phase-1 frequent-item
	// extraction and mass estimation (the paper's literal reading). The
	// default (false) uses the robust row-median estimator: thresholding
	// the mean over a large domain harvests collision spikes and floods FI
	// with false positives — see BenchmarkAblationFIEstimator in the module
	// root's bench_test.go.
	MeanFI bool
	// Seed drives all randomness: hash families, user shuffling and
	// client-side perturbation.
	Seed int64
}

// Validate extends Params.Validate with the phase-1 knobs.
func (o PlusOptions) Validate() error {
	if err := o.Params.Validate(); err != nil {
		return err
	}
	if !(o.SampleRate > 0 && o.SampleRate < 1) {
		return fmt.Errorf("core: sample rate must lie in (0,1), got %v", o.SampleRate)
	}
	if !(o.Theta > 0 && o.Theta < 1) {
		return fmt.Errorf("core: threshold theta must lie in (0,1), got %v", o.Theta)
	}
	return nil
}

// PlusResult carries the LDPJoinSketch+ estimate and the intermediate
// quantities the experiments report.
type PlusResult struct {
	// Estimate is the final join-size estimate (Algorithm 3, phase 2
	// line 6).
	Estimate float64
	// LowEstimate and HighEstimate are LEst and HEst after group scaling.
	LowEstimate  float64
	HighEstimate float64
	// FrequentItems is FI = FI_A ∪ FI_B from phase 1.
	FrequentItems []uint64
	// HighFreqA and HighFreqB are the estimated population counts of
	// frequent-valued users (Algorithm 5, lines 1–4).
	HighFreqA float64
	HighFreqB float64
	// SampledA/B and group sizes document the user split.
	SampledA, SampledB int
	GroupA1, GroupA2   int
	GroupB1, GroupB2   int
	// BuildTime covers both collection phases (the protocol's offline
	// cost); EstimateTime covers JoinEst (the online cost).
	BuildTime    time.Duration
	EstimateTime time.Duration
}

// EstimateJoinPlus runs the full two-phase LDPJoinSketch+ protocol
// (Algorithm 3) over the two private columns, with candidate values drawn
// from [0, domain). Every user participates exactly once — either in the
// phase-1 sample or in one phase-2 group — so each report can spend the
// whole budget ε (parallel composition over disjoint users).
func EstimateJoinPlus(a, b []uint64, domain uint64, opt PlusOptions) PlusResult {
	stateA, stateB, res := collectPlus(a, b, domain, opt)

	// JoinEst (Algorithm 5), shared with the serving path. Each state is
	// joined once, so the masses are computed here, under the estimator
	// opt selects, rather than memoized.
	estStart := time.Now()
	est := (*Sketch).FrequencyMedian
	if opt.MeanFI {
		est = (*Sketch).Frequency
	}
	res.HighFreqA, res.HighFreqB = frequentMass(stateA, est), frequentMass(stateB, est)
	res.LowEstimate, res.HighEstimate = joinEstPlus(stateA, stateB, res.HighFreqA, res.HighFreqB, opt.LiteralNTSubtraction)
	res.Estimate = res.LowEstimate + res.HighEstimate
	res.EstimateTime = time.Since(estStart)
	return res
}

// collectPlus runs both collection phases of EstimateJoinPlus and
// returns the two sides' finalized states, with a result carrying the
// frequent items, the user split and the build time.
func collectPlus(a, b []uint64, domain uint64, opt PlusOptions) (*PlusState, *PlusState, PlusResult) {
	if err := opt.Validate(); err != nil {
		panic(err)
	}
	if len(a) < 10 || len(b) < 10 {
		panic("core: LDPJoinSketch+ needs at least 10 users per side")
	}
	buildStart := time.Now()
	rng := rand.New(rand.NewSource(opt.Seed))

	// Assign users to phase-1 sample / group 1 / group 2 uniformly at
	// random (the columns may arrive in any order; shuffling copies keeps
	// the caller's data intact).
	sa, a1, a2 := splitUsers(a, opt.SampleRate, rng)
	sb, b1, b2 := splitUsers(b, opt.SampleRate, rng)

	// Phase 1: plain LDPJoinSketch over the samples, then FI extraction.
	fam1 := opt.Params.NewFamily(PlusSampleSeed(opt.Seed))
	aggA := NewAggregator(opt.Params, fam1)
	aggA.CollectColumn(sa, rng)
	aggB := NewAggregator(opt.Params, fam1)
	aggB.CollectColumn(sb, rng)
	skA := aggA.Finalize()
	skB := aggB.Finalize()

	fiA := skA.FrequentItems(domain, opt.Theta*float64(len(sa)), opt.MeanFI)
	fiB := skB.FrequentItems(domain, opt.Theta*float64(len(sb)), opt.MeanFI)
	fi := NewFISet(fiA)
	for _, d := range fiB {
		fi[d] = struct{}{}
	}
	fiList := make([]uint64, 0, len(fi))
	for d := range fi {
		fiList = append(fiList, d)
	}
	slices.Sort(fiList)

	// Phase 2: group 1 builds the low-frequency sketches, group 2 the
	// high-frequency ones, all through FAP with the full budget.
	fam2 := opt.Params.NewFamily(PlusGroupSeed(opt.Seed))
	mLA := NewAggregator(opt.Params, fam2)
	mLA.CollectColumnFAP(a1, ModeLow, fi, rng)
	mLB := NewAggregator(opt.Params, fam2)
	mLB.CollectColumnFAP(b1, ModeLow, fi, rng)
	mHA := NewAggregator(opt.Params, fam2)
	mHA.CollectColumnFAP(a2, ModeHigh, fi, rng)
	mHB := NewAggregator(opt.Params, fam2)
	mHB.CollectColumnFAP(b2, ModeHigh, fi, rng)

	skLA, skLB := mLA.Finalize(), mLB.Finalize()
	skHA, skHB := mHA.Finalize(), mHB.Finalize()

	stateA := &PlusState{Sample: skA, Low: skLA, High: skHA, Domain: domain, Theta: opt.Theta, FI: fiList}
	stateB := &PlusState{Sample: skB, Low: skLB, High: skHB, Domain: domain, Theta: opt.Theta, FI: fiList}
	return stateA, stateB, PlusResult{
		FrequentItems: fiList,
		SampledA:      len(sa),
		SampledB:      len(sb),
		GroupA1:       len(a1),
		GroupA2:       len(a2),
		GroupB1:       len(b1),
		GroupB2:       len(b2),
		BuildTime:     time.Since(buildStart),
	}
}

// splitUsers shuffles a copy of data and splits it into the phase-1
// sample (rate fraction) and two equal phase-2 groups.
func splitUsers(data []uint64, rate float64, rng *rand.Rand) (sample, g1, g2 []uint64) {
	shuffled := append([]uint64(nil), data...)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	ns := int(rate * float64(len(shuffled)))
	if ns < 1 {
		ns = 1
	}
	if ns > len(shuffled)-2 {
		ns = len(shuffled) - 2
	}
	rest := shuffled[ns:]
	half := len(rest) / 2
	return shuffled[:ns], rest[:half], rest[half:]
}
