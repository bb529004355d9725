package core

import (
	"math/rand"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/ldp"
)

// Mode selects which frequency class a phase-2 sketch targets.
type Mode int

const (
	// ModeLow builds a sketch whose targets are low-frequency values
	// (d ∉ FI); high-frequency values are encoded as non-targets.
	ModeLow Mode = iota
	// ModeHigh builds a sketch whose targets are high-frequency values
	// (d ∈ FI).
	ModeHigh
)

// String implements fmt.Stringer for diagnostics.
func (m Mode) String() string {
	if m == ModeHigh {
		return "high"
	}
	return "low"
}

// FISet is the frequent-item set broadcast to clients after phase 1.
type FISet map[uint64]struct{}

// NewFISet builds the set from a slice of frequent values.
func NewFISet(items []uint64) FISet {
	s := make(FISet, len(items))
	for _, d := range items {
		s[d] = struct{}{}
	}
	return s
}

// Contains reports membership.
func (s FISet) Contains(d uint64) bool {
	_, ok := s[d]
	return ok
}

// FAPPerturb is the Frequency-Aware Perturbation mechanism (Algorithm 4).
// Target values — the values in the frequency class the sketch summarizes
// — are encoded exactly as in Algorithm 1. Non-target values are encoded
// from a uniformly random index r instead of h_j(d), making their
// contribution independent of their true value and uniform across the
// sketch (Theorem 8), so the server can subtract it. Both classes are
// perturbed identically, which is why the output remains ε-LDP (Theorem
// 6).
func FAPPerturb(d uint64, mode Mode, fi FISet, p Params, fam *hashing.Family, rng *rand.Rand) Report {
	nonTarget := (mode == ModeHigh) == !fi.Contains(d)
	if !nonTarget {
		return Perturb(d, p, fam, rng)
	}
	j := rng.Intn(p.K)
	l := rng.Intn(p.M)
	r := rng.Intn(p.M)
	w := kernel.Entry(r, l) // v[r] = 1 ⇒ w[l] = H_m[r, l]
	b := ldp.SampleBit(rng, p.Epsilon)
	return Report{Y: b * int8(w), Row: uint32(j), Col: uint32(l)}
}

// CollectColumnFAP simulates phase 2 for one user group: every value in
// data is perturbed with FAP and ingested.
func (a *Aggregator) CollectColumnFAP(data []uint64, mode Mode, fi FISet, rng *rand.Rand) {
	for _, d := range data {
		a.Add(FAPPerturb(d, mode, fi, a.params, a.fam, rng))
	}
}
