package core

import (
	"math/rand"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/ldp"
)

// Report is the message a client transmits: the perturbed Hadamard
// coefficient y ∈ {−1,+1} and the sampled sketch coordinates (j, l). By
// Theorem 1 the triple satisfies ε-LDP, so it is safe to send to the
// untrusted aggregator.
type Report struct {
	Y   int8
	Row uint32
	Col uint32
}

// Perturb is the client side of LDPJoinSketch (Algorithm 1). Given the
// private join value d it samples j ~ U[k] and l ~ U[m], encodes
// v[h_j(d)] = ξ_j(d), Hadamard-transforms, and perturbs the sampled
// coefficient with the randomized-response bit b.
//
// The transform is never materialized: the single non-zero entry of v
// makes w[l] = ξ_j(d)·H_m[h_j(d), l], and the Hadamard entry is
// (−1)^popcount(h_j(d) AND l) — the whole client is O(1). PerturbLiteral
// is the line-by-line transcription used to validate this shortcut.
func Perturb(d uint64, p Params, fam *hashing.Family, rng *rand.Rand) Report {
	j := rng.Intn(p.K)
	l := rng.Intn(p.M)
	w := fam.Sign(j, d) * kernel.Entry(fam.Bucket(j, d), l)
	b := ldp.SampleBit(rng, p.Epsilon)
	return Report{Y: b * int8(w), Row: uint32(j), Col: uint32(l)}
}

// PerturbLiteral transcribes Algorithm 1 exactly as printed: it builds the
// length-m vector v, multiplies by the Hadamard matrix, then samples and
// perturbs one coordinate. It exists for the equivalence test and the
// encoding-cost ablation; production code uses Perturb.
func PerturbLiteral(d uint64, p Params, fam *hashing.Family, rng *rand.Rand) Report {
	j := rng.Intn(p.K)
	l := rng.Intn(p.M)
	v := make([]float64, p.M)
	v[fam.Bucket(j, d)] = float64(fam.Sign(j, d))
	kernel.FWHT(v) // w ← v × H_m
	b := ldp.SampleBit(rng, p.Epsilon)
	return Report{Y: int8(b) * int8(v[l]), Row: uint32(j), Col: uint32(l)}
}
