// Package core implements the paper's contributions: the LDPJoinSketch
// protocol (client Algorithm 1, server Algorithm 2, join estimation Eq 5,
// frequency estimation Theorem 7), the Frequency-Aware Perturbation
// mechanism (Algorithm 4), the two-phase LDPJoinSketch+ framework
// (Algorithms 3 and 5), and the multi-way join extension of §VI.
//
// The package follows the paper's split strictly: Perturb and FAPPerturb
// are pure client-side functions whose outputs are safe to transmit (they
// satisfy ε-LDP — Theorems 1 and 6, verified by exact enumeration in the
// tests); Aggregator/Sketch are server-side and only ever see perturbed
// reports.
package core

import (
	"fmt"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/ldp"
)

// Params carries the protocol parameters shared by clients and server: the
// sketch has K rows and M columns (M a power of two, the Hadamard order),
// and every client spends privacy budget Epsilon.
type Params struct {
	K       int
	M       int
	Epsilon float64
}

// Validate returns an error when the parameters cannot run the protocol.
func (p Params) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("core: sketch depth K must be positive, got %d", p.K)
	}
	if !kernel.IsPowerOfTwo(p.M) {
		return fmt.Errorf("core: sketch width M must be a power of two, got %d", p.M)
	}
	if !(p.Epsilon > 0) {
		return fmt.Errorf("core: privacy budget epsilon must be positive, got %v", p.Epsilon)
	}
	return nil
}

// mustValidate panics on invalid parameters; constructors use it so
// programmer errors fail fast.
func (p Params) mustValidate() {
	if err := p.Validate(); err != nil {
		panic(err)
	}
}

// NewFamily derives the hash family for these parameters from a seed. Both
// join endpoints must use the same family (the paper's "same hash
// functions" requirement); sharing the seed achieves that without sharing
// state.
func (p Params) NewFamily(seed int64) *hashing.Family {
	p.mustValidate()
	return hashing.NewFamily(seed, p.K, p.M)
}

// SketchBytes returns the server-side memory footprint of one sketch in
// bytes (K·M float64 counters), as accounted by the Fig 6 experiment.
func (p Params) SketchBytes() int { return p.K * p.M * 8 }

// ReportBits returns the private communication cost of one client report
// in bits. The sampled indices (j, l) are independent of the private
// value, so they can be derived from public randomness (e.g., a hash of
// the user id) and need not be transmitted — each client sends exactly
// the one perturbed bit, which is how the paper accounts Fig 7.
func (p Params) ReportBits() int { return 1 }

// ReportBitsExplicit returns the packed report width when the sampled
// indices are transmitted explicitly rather than derived from public
// randomness: one sign bit plus ⌈log2 K⌉ + ⌈log2 M⌉ index bits. It is a
// lower bound, not the wire: internal/protocol ships each report in
// protocol.ReportSize (7) bytes.
func (p Params) ReportBitsExplicit() int {
	return 1 + ldp.BitsFor(uint64(p.K)) + ldp.BitsFor(uint64(p.M))
}
