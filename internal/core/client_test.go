package core

import (
	"math"
	"math/rand"
	"testing"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/ldp"
)

func testParams() Params { return Params{K: 3, M: 8, Epsilon: 1.5} }

func TestPerturbOutputShape(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		r := Perturb(uint64(i%100), p, fam, rng)
		if r.Y != 1 && r.Y != -1 {
			t.Fatalf("Y = %d not a sign", r.Y)
		}
		if int(r.Row) >= p.K || int(r.Col) >= p.M {
			t.Fatalf("indices out of range: %+v", r)
		}
	}
}

// TestPerturbMatchesLiteral checks the O(1) client against the literal
// line-by-line transcription of Algorithm 1: same randomness, same output.
func TestPerturbMatchesLiteral(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(3)
	for i := 0; i < 2000; i++ {
		seed := int64(i)
		r1 := Perturb(uint64(i%64), p, fam, rand.New(rand.NewSource(seed)))
		r2 := PerturbLiteral(uint64(i%64), p, fam, rand.New(rand.NewSource(seed)))
		if r1 != r2 {
			t.Fatalf("value %d: fast %+v != literal %+v", i%64, r1, r2)
		}
	}
}

// clientProb returns the exact output probability P[(y,j,l) | d] of
// Algorithm 1: uniform over (j,l) and randomized response on the encoded
// coefficient w = ξ_j(d)·H[h_j(d), l].
func clientProb(d uint64, y int8, j, l int, p Params, fam *hashing.Family) float64 {
	w := int8(fam.Sign(j, d) * kernel.Entry(fam.Bucket(j, d), l))
	keep := ldp.KeepProb(p.Epsilon)
	base := 1 / float64(p.K*p.M)
	if y == w {
		return base * keep
	}
	return base * (1 - keep)
}

// TestPerturbSatisfiesLDP is Theorem 1 as a test: exact enumeration of the
// output distribution over a small sketch, checking the ε ratio bound for
// every pair of inputs and every output.
func TestPerturbSatisfiesLDP(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(7)
	const domain = 16
	bound := math.Exp(p.Epsilon) + 1e-12
	for d1 := uint64(0); d1 < domain; d1++ {
		for d2 := uint64(0); d2 < domain; d2++ {
			for j := 0; j < p.K; j++ {
				for l := 0; l < p.M; l++ {
					for _, y := range []int8{-1, 1} {
						r := clientProb(d1, y, j, l, p, fam) / clientProb(d2, y, j, l, p, fam)
						if r > bound || r < 1/bound {
							t.Fatalf("LDP violated: d=%d,%d out=(%d,%d,%d) ratio=%g", d1, d2, y, j, l, r)
						}
					}
				}
			}
		}
	}
}

// TestPerturbEmpiricalMatchesClosedForm draws many reports for one value
// and compares the empirical distribution to clientProb.
func TestPerturbEmpiricalMatchesClosedForm(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(9)
	rng := rand.New(rand.NewSource(10))
	const d = 5
	const n = 400000
	counts := map[Report]int{}
	for i := 0; i < n; i++ {
		counts[Perturb(d, p, fam, rng)]++
	}
	for j := 0; j < p.K; j++ {
		for l := 0; l < p.M; l++ {
			for _, y := range []int8{-1, 1} {
				want := clientProb(d, y, j, l, p, fam)
				got := float64(counts[Report{Y: y, Row: uint32(j), Col: uint32(l)}]) / n
				if math.Abs(got-want) > 0.004 {
					t.Fatalf("out=(%d,%d,%d): empirical %.4f vs exact %.4f", y, j, l, got, want)
				}
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{K: 2, M: 16, Epsilon: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	for _, bad := range []Params{
		{K: 0, M: 16, Epsilon: 1},
		{K: 2, M: 15, Epsilon: 1},
		{K: 2, M: 0, Epsilon: 1},
		{K: 2, M: 16, Epsilon: 0},
		{K: 2, M: 16, Epsilon: math.NaN()},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid params accepted: %+v", bad)
		}
	}
}

func TestParamsCosts(t *testing.T) {
	p := Params{K: 18, M: 1024, Epsilon: 4}
	if got := p.SketchBytes(); got != 18*1024*8 {
		t.Fatalf("SketchBytes = %d", got)
	}
	if got := p.ReportBits(); got != 1 {
		t.Fatalf("ReportBits = %d, want 1 (public-coin indices)", got)
	}
	if got := p.ReportBitsExplicit(); got != 1+5+10 {
		t.Fatalf("ReportBitsExplicit = %d, want 16", got)
	}
}

func TestNewFamilyMatchesParams(t *testing.T) {
	p := Params{K: 4, M: 32, Epsilon: 2}
	fam := p.NewFamily(1)
	if fam.K() != 4 || fam.M() != 32 {
		t.Fatalf("family (%d,%d) does not match params", fam.K(), fam.M())
	}
}
