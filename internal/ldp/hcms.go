package ldp

import (
	"math/rand"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
)

// HCMSReport is the message an HCMS client sends: one perturbed Hadamard
// coefficient plus the sampled sketch coordinates. It is identical in
// shape to the paper's LDPJoinSketch report — the two mechanisms differ
// only in how the value is encoded before the transform.
type HCMSReport struct {
	Y   int8   // perturbed bit, ±1
	Row uint32 // sampled sketch row j ∈ [k]
	Col uint32 // sampled Hadamard coordinate l ∈ [m]
}

// HCMS is Apple's private Hadamard count mean sketch: the client encodes
// v[h_j(d)] = 1 (no sign hash), Hadamard-transforms, samples one
// coordinate, and flips it with probability 1/(e^ε+1). The server rebuilds
// a k×m sketch and answers frequency queries with the count-mean
// estimator. Join sizes are estimated by accumulating frequency products
// over the candidate domain.
type HCMS struct {
	fam  *hashing.Family
	eps  float64
	ceps float64
	rows [][]float64
	n    float64
	done bool
}

// NewHCMS creates an empty HCMS aggregator over the family. The family's M
// must be a power of two (Hadamard order).
func NewHCMS(fam *hashing.Family, eps float64) *HCMS {
	ValidateEpsilon(eps)
	if !kernel.IsPowerOfTwo(fam.M()) {
		panic("ldp: HCMS sketch width must be a power of two")
	}
	rows := make([][]float64, fam.K())
	for j := range rows {
		rows[j] = make([]float64, fam.M())
	}
	return &HCMS{fam: fam, eps: eps, ceps: CEpsilon(eps), rows: rows}
}

// Perturb runs the HCMS client for true value d.
func (h *HCMS) Perturb(d uint64, rng *rand.Rand) HCMSReport {
	k, m := h.fam.K(), h.fam.M()
	j := rng.Intn(k)
	l := rng.Intn(m)
	w := int8(kernel.Entry(h.fam.Bucket(j, d), l))
	return HCMSReport{
		Y:   SampleBit(rng, h.eps) * w,
		Row: uint32(j),
		Col: uint32(l),
	}
}

// Add ingests one report. Reports must be added before Finalize.
func (h *HCMS) Add(r HCMSReport) {
	if h.done {
		panic("ldp: HCMS.Add after Finalize")
	}
	h.rows[r.Row][r.Col] += float64(h.fam.K()) * h.ceps * float64(r.Y)
	h.n++
}

// Collect perturbs and ingests a whole column of true values.
func (h *HCMS) Collect(data []uint64, rng *rand.Rand) {
	for _, d := range data {
		h.Add(h.Perturb(d, rng))
	}
}

// Finalize transforms the sketch back out of the Hadamard domain. It must
// be called exactly once, after all reports have been added.
func (h *HCMS) Finalize() {
	if h.done {
		panic("ldp: HCMS.Finalize called twice")
	}
	for j := range h.rows {
		kernel.FWHT(h.rows[j])
	}
	h.done = true
}

// Frequency returns Apple's debiased count-mean estimate of f(d):
// (m/(m−1))·(mean_j M[j,h_j(d)] − n/m).
func (h *HCMS) Frequency(d uint64) float64 {
	if !h.done {
		panic("ldp: HCMS.Frequency before Finalize")
	}
	k, m := h.fam.K(), float64(h.fam.M())
	var sum float64
	for j := 0; j < k; j++ {
		sum += h.rows[j][h.fam.Bucket(j, d)]
	}
	mean := sum / float64(k)
	return (m / (m - 1)) * (mean - h.n/m)
}

// JoinSize estimates |A ⋈ B| by accumulating frequency products over
// [0, domain). Both sketches must be finalized and share the family.
func (h *HCMS) JoinSize(other *HCMS, domain uint64) float64 {
	if h.fam != other.fam {
		panic("ldp: HCMS join across different hash families")
	}
	var s float64
	for d := uint64(0); d < domain; d++ {
		s += h.Frequency(d) * other.Frequency(d)
	}
	return s
}

// ReportBits returns the private communication cost of one report in
// bits. As with LDPJoinSketch, the sampled indices are data-independent
// and derivable from public randomness, so each client ships exactly one
// perturbed bit (the paper's Fig 7 accounting).
func (h *HCMS) ReportBits() int { return 1 }

// SketchBytes returns the memory footprint of the server sketch in bytes
// (k·m float64 counters), used by the space-cost experiment (Fig 6).
func (h *HCMS) SketchBytes() int {
	return h.fam.K() * h.fam.M() * 8
}
