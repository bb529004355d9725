package ldp

import (
	"math"
	"math/rand"
	"testing"

	"ldpjoin/internal/dataset"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/join"
	"ldpjoin/internal/kernel"
)

// TestHCMSSatisfiesLDP enumerates the exact output distribution of the
// HCMS client on a small sketch and checks the ε-LDP ratio for every pair
// of inputs and every output.
func TestHCMSSatisfiesLDP(t *testing.T) {
	const eps = 1.2
	const k, m = 2, 4
	const domain = 8
	fam := hashing.NewFamily(5, k, m)
	h := NewHCMS(fam, eps)
	keep := KeepProb(eps)

	// P[(y,j,l) | d] = (1/(k·m)) · (keep if y == H[h_j(d), l] else 1−keep).
	prob := func(d uint64, y int8, j, l int) float64 {
		w := int8(kernel.Entry(fam.Bucket(j, d), l))
		if y == w {
			return keep / (k * m)
		}
		return (1 - keep) / (k * m)
	}
	bound := math.Exp(eps) + 1e-12
	for d1 := uint64(0); d1 < domain; d1++ {
		for d2 := uint64(0); d2 < domain; d2++ {
			for j := 0; j < k; j++ {
				for l := 0; l < m; l++ {
					for _, y := range []int8{-1, 1} {
						r := prob(d1, y, j, l) / prob(d2, y, j, l)
						if r > bound || r < 1/bound {
							t.Fatalf("LDP violated: d1=%d d2=%d out=(%d,%d,%d) ratio %g", d1, d2, y, j, l, r)
						}
					}
				}
			}
		}
	}
	_ = h
}

func TestHCMSClientOutputShape(t *testing.T) {
	fam := hashing.NewFamily(1, 4, 16)
	h := NewHCMS(fam, 2)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		r := h.Perturb(uint64(i%50), rng)
		if r.Y != 1 && r.Y != -1 {
			t.Fatalf("Y = %d not a sign", r.Y)
		}
		if int(r.Row) >= 4 || int(r.Col) >= 16 {
			t.Fatalf("indices out of range: %+v", r)
		}
	}
}

func TestHCMSFrequencyAccuracy(t *testing.T) {
	const n = 200000
	const domain = 100
	fam := hashing.NewFamily(3, 16, 256)
	h := NewHCMS(fam, 4)
	rng := rand.New(rand.NewSource(4))
	data := dataset.Zipf(5, n, domain, 1.5)
	h.Collect(data, rng)
	h.Finalize()
	truth := join.Frequencies(data)
	// Error sources: RR noise ≈ c_ε·sqrt(n); collision noise with std
	// sqrt(F2/(m·k)); plus a few whole heavy-item collisions averaged over
	// the k rows. This is HCMS's inherent hash-collision error (§I).
	var fmax float64
	for _, c := range truth {
		if f := float64(c); f > fmax {
			fmax = f
		}
	}
	f2 := join.F2(data)
	slack := 5*CEpsilon(4)*math.Sqrt(n) + 5*math.Sqrt(f2/(256*16)) + 3*fmax/16
	for d := uint64(0); d < domain; d++ {
		if err := math.Abs(h.Frequency(d) - float64(truth[d])); err > slack {
			t.Fatalf("value %d: error %.0f exceeds %.0f (est %.0f truth %d)",
				d, err, slack, h.Frequency(d), truth[d])
		}
	}
}

func TestHCMSFrequencyUnbiasedOverTrials(t *testing.T) {
	// Average the estimate of one value's frequency across independent
	// runs; it should converge near the truth.
	const n = 2000
	const trials = 60
	data := dataset.Zipf(7, n, 50, 1.5)
	truth := join.Frequencies(data)
	var sum float64
	for i := 0; i < trials; i++ {
		fam := hashing.NewFamily(int64(100+i), 8, 64)
		h := NewHCMS(fam, 2)
		rng := rand.New(rand.NewSource(int64(i)))
		h.Collect(data, rng)
		h.Finalize()
		sum += h.Frequency(0)
	}
	mean := sum / trials
	want := float64(truth[0])
	// std of one run ≈ c_ε·sqrt(n·m/k)/... keep generous: 15% of truth.
	if math.Abs(mean-want)/want > 0.15 {
		t.Fatalf("mean estimate %.0f vs truth %.0f", mean, want)
	}
}

func TestHCMSJoinSizeHighBudget(t *testing.T) {
	const n = 100000
	const domain = 200
	fam := hashing.NewFamily(9, 16, 1024)
	ha := NewHCMS(fam, 8)
	hb := NewHCMS(fam, 8)
	rng := rand.New(rand.NewSource(10))
	da := dataset.Zipf(11, n, domain, 1.5)
	db := dataset.Zipf(12, n, domain, 1.5)
	ha.Collect(da, rng)
	hb.Collect(db, rng)
	ha.Finalize()
	hb.Finalize()
	truth := join.Size(da, db)
	est := ha.JoinSize(hb, domain)
	if re := math.Abs(est-truth) / truth; re > 0.25 {
		t.Fatalf("high-budget HCMS join RE = %.3f (est %.0f truth %.0f)", re, est, truth)
	}
}

func TestHCMSLifecyclePanics(t *testing.T) {
	fam := hashing.NewFamily(1, 2, 16)
	func() {
		h := NewHCMS(fam, 1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic: Frequency before Finalize")
			}
		}()
		h.Frequency(0)
	}()
	func() {
		h := NewHCMS(fam, 1)
		h.Finalize()
		defer func() {
			if recover() == nil {
				t.Error("expected panic: Add after Finalize")
			}
		}()
		h.Add(HCMSReport{})
	}()
	func() {
		h := NewHCMS(fam, 1)
		h.Finalize()
		defer func() {
			if recover() == nil {
				t.Error("expected panic: double Finalize")
			}
		}()
		h.Finalize()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic: non power-of-two m")
			}
		}()
		NewHCMS(hashing.NewFamily(1, 2, 15), 1)
	}()
	func() {
		ha := NewHCMS(fam, 1)
		hb := NewHCMS(hashing.NewFamily(2, 2, 16), 1)
		ha.Finalize()
		hb.Finalize()
		defer func() {
			if recover() == nil {
				t.Error("expected panic: join across families")
			}
		}()
		ha.JoinSize(hb, 8)
	}()
}

func TestHCMSCosts(t *testing.T) {
	fam := hashing.NewFamily(1, 18, 1024)
	h := NewHCMS(fam, 4)
	if got := h.ReportBits(); got != 1 {
		t.Fatalf("ReportBits = %d, want 1 (public-coin indices)", got)
	}
	if got := h.SketchBytes(); got != 18*1024*8 {
		t.Fatalf("SketchBytes = %d", got)
	}
}
