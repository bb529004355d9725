package core

import (
	"math"
	"math/rand"
	"testing"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/ldp"
)

// fapProb returns the exact output probability P[(y,j,l) | d] of
// Algorithm 4. Target values follow the Algorithm 1 distribution;
// non-target values marginalize over the uniform random index r.
func fapProb(d uint64, mode Mode, fi FISet, y int8, j, l int, p Params, fam *hashing.Family) float64 {
	nonTarget := (mode == ModeHigh) == !fi.Contains(d)
	if !nonTarget {
		return clientProb(d, y, j, l, p, fam)
	}
	keep := ldp.KeepProb(p.Epsilon)
	base := 1 / float64(p.K*p.M)
	var pr float64
	for r := 0; r < p.M; r++ {
		w := int8(kernel.Entry(r, l))
		if y == w {
			pr += keep / float64(p.M)
		} else {
			pr += (1 - keep) / float64(p.M)
		}
	}
	return base * pr
}

// TestFAPSatisfiesLDP is Theorem 6 as a test: exact enumeration over all
// pairs of inputs — target vs target, target vs non-target, non-target vs
// non-target — in both modes.
func TestFAPSatisfiesLDP(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(31)
	fi := NewFISet([]uint64{0, 3, 9}) // some values frequent, some not
	const domain = 12
	bound := math.Exp(p.Epsilon) + 1e-12
	for _, mode := range []Mode{ModeLow, ModeHigh} {
		for d1 := uint64(0); d1 < domain; d1++ {
			for d2 := uint64(0); d2 < domain; d2++ {
				for j := 0; j < p.K; j++ {
					for l := 0; l < p.M; l++ {
						for _, y := range []int8{-1, 1} {
							r := fapProb(d1, mode, fi, y, j, l, p, fam) / fapProb(d2, mode, fi, y, j, l, p, fam)
							if r > bound || r < 1/bound {
								t.Fatalf("FAP LDP violated: mode=%v d=%d,%d out=(%d,%d,%d) ratio=%g",
									mode, d1, d2, y, j, l, r)
							}
						}
					}
				}
			}
		}
	}
}

// TestFAPTargetPathEqualsPerturb checks that a target value goes through
// Algorithm 1 unchanged (same randomness, same report).
func TestFAPTargetPathEqualsPerturb(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(33)
	fi := NewFISet([]uint64{7})
	for i := 0; i < 500; i++ {
		seed := int64(i)
		// 7 ∈ FI is the target under ModeHigh.
		r1 := FAPPerturb(7, ModeHigh, fi, p, fam, rand.New(rand.NewSource(seed)))
		r2 := Perturb(7, p, fam, rand.New(rand.NewSource(seed)))
		if r1 != r2 {
			t.Fatalf("target path diverged from Algorithm 1: %+v vs %+v", r1, r2)
		}
		// 5 ∉ FI is the target under ModeLow.
		r3 := FAPPerturb(5, ModeLow, fi, p, fam, rand.New(rand.NewSource(seed)))
		r4 := Perturb(5, p, fam, rand.New(rand.NewSource(seed)))
		if r3 != r4 {
			t.Fatalf("low target path diverged: %+v vs %+v", r3, r4)
		}
	}
}

// TestFAPEmpiricalMatchesClosedForm validates the enumeration helper
// against simulation for a non-target value.
func TestFAPEmpiricalMatchesClosedForm(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(35)
	fi := NewFISet([]uint64{2})
	rng := rand.New(rand.NewSource(36))
	const n = 400000
	counts := map[Report]int{}
	for i := 0; i < n; i++ {
		// d=4 ∉ FI is a non-target under ModeHigh.
		counts[FAPPerturb(4, ModeHigh, fi, p, fam, rng)]++
	}
	for j := 0; j < p.K; j++ {
		for l := 0; l < p.M; l++ {
			for _, y := range []int8{-1, 1} {
				want := fapProb(4, ModeHigh, fi, y, j, l, p, fam)
				got := float64(counts[Report{Y: y, Row: uint32(j), Col: uint32(l)}]) / n
				if math.Abs(got-want) > 0.004 {
					t.Fatalf("out=(%d,%d,%d): empirical %.4f vs exact %.4f", y, j, l, got, want)
				}
			}
		}
	}
}

// TestNonTargetUniformContribution is Theorem 8 as a test: a sketch built
// purely from non-target values has every cell close to |NT|/m.
func TestNonTargetUniformContribution(t *testing.T) {
	p := Params{K: 2, M: 16, Epsilon: 4}
	fam := p.NewFamily(37)
	fi := NewFISet([]uint64{1, 2, 3})
	const nt = 200000
	agg := NewAggregator(p, fam)
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < nt; i++ {
		// All values are in FI, so under ModeLow every one is non-target.
		agg.Add(FAPPerturb(uint64(1+i%3), ModeLow, fi, p, fam, rng))
	}
	sk := agg.Finalize()
	want := float64(nt) / float64(p.M)
	// Per-cell noise std ≈ sqrt(k·c_ε²·|NT|) ≈ 660; allow 5σ.
	slack := 5 * math.Sqrt(float64(p.K)*ldp.CEpsilon(p.Epsilon)*ldp.CEpsilon(p.Epsilon)*nt)
	for j := 0; j < p.K; j++ {
		for x := 0; x < p.M; x++ {
			if got := sk.Row(j)[x]; math.Abs(got-want) > slack {
				t.Fatalf("cell [%d,%d] = %.0f, want %.0f ± %.0f", j, x, got, want, slack)
			}
		}
	}
}

func TestFISet(t *testing.T) {
	fi := NewFISet([]uint64{1, 5})
	if !fi.Contains(1) || !fi.Contains(5) || fi.Contains(2) {
		t.Fatal("FISet membership wrong")
	}
	if len(NewFISet(nil)) != 0 {
		t.Fatal("empty FISet should have no members")
	}
}

func TestModeString(t *testing.T) {
	if ModeLow.String() != "low" || ModeHigh.String() != "high" {
		t.Fatal("Mode.String mismatch")
	}
}
