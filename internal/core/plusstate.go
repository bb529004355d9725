package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Seed tweaks separating the two LDPJoinSketch+ phases: phase 1 runs a
// plain LDPJoinSketch over the sample under one hash family, phase 2
// runs both FAP group sketches under another. Deriving both from one
// base seed keeps a plus column addressable by a single fingerprint.
const (
	plusSampleSeedXor = 0x1bd11bda
	plusGroupSeedXor  = 0x7afc_2b3d
)

// PlusSampleSeed derives the phase-1 (sample) hash-family seed from a
// plus column's base seed.
func PlusSampleSeed(seed int64) int64 { return seed ^ plusSampleSeedXor }

// PlusGroupSeed derives the phase-2 (low/high group) hash-family seed
// from a plus column's base seed. Both groups share one family: FAP
// changes how non-targets are encoded, not where targets land.
func PlusGroupSeed(seed int64) int64 { return seed ^ plusGroupSeedXor }

// PlusState is the finalized state of one plus column: the phase-1
// sample sketch, the two phase-2 group sketches, and the frozen
// advance parameters that keyed phase 2. A state is read-only once it
// has been joined: its first join memoizes the column's frequent mass,
// which a later change to Sample, FI or any group's report count would
// leave stale.
type PlusState struct {
	Sample *Sketch // phase-1 sample (plain LDPJoinSketch)
	Low    *Sketch // phase-2 group 1 (low-frequency targets)
	High   *Sketch // phase-2 group 2 (high-frequency targets)
	// Domain and Theta are the advance parameters FI was extracted with.
	Domain uint64
	Theta  float64
	// FI is the frozen frequent-item set, sorted ascending.
	FI []uint64

	// mass is the state's frequent mass under the median estimator (see
	// highFreq), set on its first join under massMu; readers load it
	// without the lock.
	massMu sync.Mutex
	mass   atomic.Pointer[float64]
}

// Population is the column's total user count across all three phases.
func (s *PlusState) Population() float64 {
	return s.Sample.N() + s.Low.N() + s.High.N()
}

// PlusJoinEstimate is the result of composing two plus column states.
type PlusJoinEstimate struct {
	// Estimate is the final join-size estimate (Algorithm 3, phase 2
	// line 6): the sum of the group-scaled low and high estimates.
	Estimate     float64
	LowEstimate  float64
	HighEstimate float64
	// HighFreqA and HighFreqB are the estimated population counts of
	// frequent-valued users (Algorithm 5, lines 1–4).
	HighFreqA float64
	HighFreqB float64
}

// EstimateJoinPlusColumns composes JoinEst (Algorithm 5) over two
// finalized plus column states. It is the serving-path counterpart of
// EstimateJoinPlus, which simulates the whole protocol: the service,
// the federate CLI and the conformance tests all call this one
// function so a served estimate can be checked for exact equality
// against an in-process reference. The two states must have been
// advanced with the same FI, carry pairwise-compatible sketches, and
// have at least one report in every phase — a zero-report group would
// make the group scaling degenerate.
func EstimateJoinPlusColumns(a, b *PlusState) (PlusJoinEstimate, error) {
	for _, side := range []struct {
		name  string
		state *PlusState
	}{{"left", a}, {"right", b}} {
		s := side.state
		if s == nil || s.Sample == nil || s.Low == nil || s.High == nil {
			return PlusJoinEstimate{}, fmt.Errorf("core: %s plus state is missing a phase sketch", side.name)
		}
		if s.Sample.N() <= 0 || s.Low.N() <= 0 || s.High.N() <= 0 {
			return PlusJoinEstimate{}, fmt.Errorf("core: %s plus column has an empty phase (sample %g, low %g, high %g)",
				side.name, s.Sample.N(), s.Low.N(), s.High.N())
		}
	}
	if !a.Sample.Compatible(b.Sample) || !a.Low.Compatible(b.Low) || !a.High.Compatible(b.High) {
		return PlusJoinEstimate{}, fmt.Errorf("core: plus columns use incompatible sketches")
	}
	if a.Domain != b.Domain || a.Theta != b.Theta || !slices.Equal(a.FI, b.FI) {
		return PlusJoinEstimate{}, fmt.Errorf("core: plus columns froze different frequent-item sets")
	}
	highA, highB := a.highFreq(), b.highFreq()
	lEst, hEst := joinEstPlus(a, b, highA, highB, false)
	return PlusJoinEstimate{
		Estimate:     lEst + hEst,
		LowEstimate:  lEst,
		HighEstimate: hEst,
		HighFreqA:    highA,
		HighFreqB:    highB,
	}, nil
}

// highFreq is the state's frequent mass under the median estimator,
// computed on the first call — a join — and memoized: it reads one
// column's phase-1 sample and nothing of the other side, so every join
// of the column shares it.
func (s *PlusState) highFreq() float64 {
	if m := s.mass.Load(); m != nil {
		return *m
	}
	s.massMu.Lock()
	defer s.massMu.Unlock()
	if m := s.mass.Load(); m != nil {
		return *m
	}
	m := frequentMass(s, (*Sketch).FrequencyMedian)
	s.mass.Store(&m)
	return m
}

// frequentMass is the population count of s's frequent-valued users
// (Algorithm 5, lines 1–4): est's phase-1 estimates of the FI values,
// scaled from the sample to the population, clipped to the population.
// Negative estimates carry no mass.
func frequentMass(s *PlusState, est func(*Sketch, uint64) float64) float64 {
	pop := s.Population()
	var high float64
	for _, d := range s.FI {
		if f := est(s.Sample, d); f > 0 {
			high += f * pop / s.Sample.N()
		}
	}
	return min(high, pop)
}

// joinEstPlus is the rest of JoinEst (Algorithm 5) over two sides'
// finalized phase sketches, given each side's frequent mass: subtract
// each group sketch's uniform non-target contribution |NT|/m (Theorem
// 8), take sketch products, and scale the group-level estimates back to
// the population. Shared by EstimateJoinPlus (local simulation, which
// computes the masses afresh) and EstimateJoinPlusColumns (served
// columns, which memoize them). Both states must carry the frozen
// frequent-item set both phase-2 collections were keyed by; neither is
// written.
func joinEstPlus(a, b *PlusState, highA, highB float64, literalNT bool) (lEst, hEst float64) {
	popA, popB := a.Population(), b.Population()
	ntLA, ntLB := highA, highB           // non-targets of the low sketches are frequent users
	ntHA, ntHB := popA-highA, popB-highB // and vice versa
	if !literalNT {                      // scale to the group that built each sketch
		ntLA *= a.Low.N() / popA
		ntLB *= b.Low.N() / popB
		ntHA *= a.High.N() / popA
		ntHB *= b.High.N() / popB
	}
	// Subtracting the uniform |NT|/m contribution (Theorem 8) folds into
	// the dot products via JoinSizeShifted — same estimate as
	// MinusConstant().JoinSize(MinusConstant()) without the four
	// full-sketch copies per estimate.
	m := float64(a.Sample.Params().M)
	lEst = a.Low.JoinSizeShifted(b.Low, ntLA/m, ntLB/m)
	hEst = a.High.JoinSizeShifted(b.High, ntHA/m, ntHB/m)

	scaleL := popA * popB / (a.Low.N() * b.Low.N())
	scaleH := popA * popB / (a.High.N() * b.High.N())
	lEst *= scaleL
	hEst *= scaleH
	return lEst, hEst
}
