package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/join"
)

func zipfData(seed int64, n int, domain uint64, s float64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, domain-1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

// seqDot is the reference inner product: one accumulator, in index
// order.
func seqDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// sortMedian is the reference median: copy, sort.Float64s, take the
// middle element or average the middle pair.
func sortMedian(v []float64) float64 {
	tmp := append([]float64(nil), v...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// TestFastAGMSMatchesNaiveEstimators pins the kernel-backed estimators
// to a sequential-dot, sort-median reference by ==: the counters are
// integer-valued, so every product and partial sum is an exact integer
// and the kernel's reassociated dot and in-place median cannot move a
// bit. Both an odd and an even K run, so the median's middle-pair
// average is covered.
func TestFastAGMSMatchesNaiveEstimators(t *testing.T) {
	const n, domain = 20000, 2000
	t1, t2, t3 := chainFixture(31, n, domain)
	for _, k := range []int{7, 8} {
		famA := hashing.NewFamily(40, k, 512)
		famB := hashing.NewFamily(41, k, 256)
		sa, sb := NewFastAGMS(famA), NewFastAGMS(famA)
		sa.UpdateAll(t1)
		sb.UpdateAll(t2.A)
		ests := make([]float64, k)
		for j := range ests {
			ests[j] = seqDot(sa.Row(j), sb.Row(j))
		}
		if got, want := sa.InnerProduct(sb), sortMedian(ests); got != want {
			t.Fatalf("K=%d: InnerProduct = %v, reference %v", k, got, want)
		}
		mid := NewCompassMatrix(famA, famB)
		mid.UpdateAll(t2.A, t2.B)
		right := NewFastAGMS(famB)
		right.UpdateAll(t3)
		for j := range ests {
			ests[j] = seqDot(mid.VecMat(j, sa.Row(j)), right.Row(j))
		}
		if got, want := CompassChain(sa, []*CompassMatrix{mid}, right), sortMedian(ests); got != want {
			t.Fatalf("K=%d: CompassChain = %v, reference %v", k, got, want)
		}
	}
}

func TestFastAGMSExactOnSingleton(t *testing.T) {
	fam := hashing.NewFamily(1, 5, 64)
	a := NewFastAGMS(fam)
	b := NewFastAGMS(fam)
	for i := 0; i < 10; i++ {
		a.Update(42)
	}
	for i := 0; i < 7; i++ {
		b.Update(42)
	}
	// With a single distinct value there are no collisions: every row's
	// inner product is exactly 10*7.
	if got := a.InnerProduct(b); got != 70 {
		t.Fatalf("singleton inner product = %g, want 70", got)
	}
	for j := 0; j < fam.K(); j++ {
		if got := a.Row(j)[fam.Bucket(j, 42)] * float64(fam.Sign(j, 42)); got != 10 {
			t.Fatalf("row %d singleton counter = %g, want 10", j, got)
		}
	}
}

func TestFastAGMSJoinAccuracy(t *testing.T) {
	fam := hashing.NewFamily(7, 7, 2048)
	da := zipfData(1, 50000, 10000, 1.3)
	db := zipfData(2, 50000, 10000, 1.3)
	sa := NewFastAGMS(fam)
	sa.UpdateAll(da)
	sb := NewFastAGMS(fam)
	sb.UpdateAll(db)
	truth := join.Size(da, db)
	est := sa.InnerProduct(sb)
	if re := math.Abs(est-truth) / truth; re > 0.05 {
		t.Fatalf("fast-AGMS RE = %.3f (est %.0f truth %.0f), want < 0.05", re, est, truth)
	}
}

func TestFastAGMSUnbiasedOverSeeds(t *testing.T) {
	// Average the row-0 estimator over many independent families: it must
	// converge on the true join size (Thm 3's non-private ancestor).
	da := zipfData(3, 2000, 500, 1.2)
	db := zipfData(4, 2000, 500, 1.2)
	truth := join.Size(da, db)
	const trials = 200
	var sum float64
	for s := int64(0); s < trials; s++ {
		fam := hashing.NewFamily(100+s, 1, 256)
		sa := NewFastAGMS(fam)
		sa.UpdateAll(da)
		sb := NewFastAGMS(fam)
		sb.UpdateAll(db)
		sum += seqDot(sa.Row(0), sb.Row(0))
	}
	mean := sum / trials
	if re := math.Abs(mean-truth) / truth; re > 0.05 {
		t.Fatalf("mean of row estimators %.0f deviates from truth %.0f (RE %.3f)", mean, truth, re)
	}
}

func TestInnerProductPanicsOnDifferentFamilies(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on family mismatch")
		}
	}()
	a := NewFastAGMS(hashing.NewFamily(1, 2, 16))
	b := NewFastAGMS(hashing.NewFamily(2, 2, 16))
	a.InnerProduct(b)
}

func BenchmarkFastAGMSUpdate(b *testing.B) {
	fam := hashing.NewFamily(1, 18, 1024)
	s := NewFastAGMS(fam)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(uint64(i))
	}
}

func BenchmarkFastAGMSInnerProduct(b *testing.B) {
	fam := hashing.NewFamily(1, 18, 1024)
	sa := NewFastAGMS(fam)
	sb := NewFastAGMS(fam)
	sa.UpdateAll(zipfData(1, 10000, 1000, 1.2))
	sb.UpdateAll(zipfData(2, 10000, 1000, 1.2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.InnerProduct(sb)
	}
}

func TestFastAGMSAccessors(t *testing.T) {
	fam := hashing.NewFamily(1, 4, 64)
	s := NewFastAGMS(fam)
	if s.K() != 4 || len(s.Row(3)) != 64 {
		t.Fatalf("accessors wrong: K=%d, row width %d", s.K(), len(s.Row(3)))
	}
}
