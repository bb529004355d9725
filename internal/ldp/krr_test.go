package ldp

import (
	"math"
	"math/rand"
	"testing"

	"ldpjoin/internal/dataset"
	"ldpjoin/internal/join"
)

// TestKRRSatisfiesLDP verifies the ε-LDP ratio bound exactly: the output
// distribution of k-RR is p for the true value and q elsewhere, so the
// worst-case ratio is p/q, which must equal e^ε.
func TestKRRSatisfiesLDP(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 4} {
		k := NewKRR(100, eps)
		if math.Abs(k.p/k.q-math.Exp(eps)) > 1e-9 {
			t.Fatalf("eps=%g: worst-case ratio %g != e^ε %g", eps, k.p/k.q, math.Exp(eps))
		}
	}
}

func TestKRRPerturbDistribution(t *testing.T) {
	const eps = 1.0
	const domain = 10
	const n = 300000
	k := NewKRR(domain, eps)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, domain)
	for i := 0; i < n; i++ {
		counts[k.Perturb(7, rng)]++
	}
	if got := float64(counts[7]) / n; math.Abs(got-k.p) > 0.005 {
		t.Fatalf("keep rate %.4f, want %.4f", got, k.p)
	}
	for d := 0; d < domain; d++ {
		if d == 7 {
			continue
		}
		if got := float64(counts[d]) / n; math.Abs(got-k.q) > 0.005 {
			t.Fatalf("off-value %d rate %.4f, want %.4f", d, got, k.q)
		}
	}
}

func TestKRRFrequencySumsToN(t *testing.T) {
	// Calibration identity: the estimated frequencies sum to exactly n.
	k := NewKRR(50, 2)
	rng := rand.New(rand.NewSource(4))
	data := dataset.Zipf(5, 20000, 50, 1.2)
	k.Collect(data, rng)
	var sum float64
	for d := uint64(0); d < 50; d++ {
		sum += k.Frequency(d)
	}
	if math.Abs(sum-20000) > 1e-6 {
		t.Fatalf("frequencies sum to %g, want 20000", sum)
	}
}

func TestKRRFrequencyAccuracy(t *testing.T) {
	const domain = 50
	const n = 200000
	const eps = 3.0
	k := NewKRR(domain, eps)
	rng := rand.New(rand.NewSource(6))
	data := dataset.Zipf(7, n, domain, 1.5)
	k.Collect(data, rng)
	truth := join.Frequencies(data)
	// std of the calibrated estimate ≈ sqrt(n·var)/(p−q); 810 here. 5σ.
	slack := 5 * math.Sqrt(float64(n)*0.25) / (k.p - k.q)
	for d := uint64(0); d < domain; d++ {
		if err := math.Abs(k.Frequency(d) - float64(truth[d])); err > slack {
			t.Fatalf("value %d: error %.0f exceeds %.0f", d, err, slack)
		}
	}
}

func TestKRRJoinSizeHighBudget(t *testing.T) {
	const domain = 200
	const n = 100000
	k1 := NewKRR(domain, 8)
	k2 := NewKRR(domain, 8)
	rng := rand.New(rand.NewSource(8))
	da := dataset.Zipf(9, n, domain, 1.3)
	db := dataset.Zipf(10, n, domain, 1.3)
	k1.Collect(da, rng)
	k2.Collect(db, rng)
	truth := join.Size(da, db)
	est := k1.JoinSize(k2)
	if re := math.Abs(est-truth) / truth; re > 0.05 {
		t.Fatalf("high-budget k-RR join RE = %.3f", re)
	}
}

func TestKRRPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for tiny domain")
			}
		}()
		NewKRR(1, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-domain value")
			}
		}()
		NewKRR(4, 1).Perturb(4, rand.New(rand.NewSource(1)))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for mismatched join domains")
			}
		}()
		NewKRR(4, 1).JoinSize(NewKRR(8, 1))
	}()
}

func TestBitsFor(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want int
	}{{0, 64}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}, {1 << 63, 63}, {1<<63 + 1, 64}, {math.MaxUint64, 64}} {
		if got := BitsFor(c.n); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestKRRReportBits(t *testing.T) {
	if got := NewKRR(1024, 1).ReportBits(); got != 10 {
		t.Fatalf("ReportBits = %d, want 10", got)
	}
}
