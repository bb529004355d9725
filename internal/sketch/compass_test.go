package sketch

import (
	"math"
	"math/rand"
	"testing"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/join"
)

// chainFixture builds a 3-way chain T1(A) ⋈ T2(A,B) ⋈ T3(B) with Zipf
// columns.
func chainFixture(seed int64, n int, domain uint64) (t1 []uint64, t2 join.PairTable, t3 []uint64) {
	t1 = zipfData(seed, n, domain, 1.2)
	t3 = zipfData(seed+1, n, domain, 1.2)
	rng := rand.New(rand.NewSource(seed + 2))
	za := rand.NewZipf(rng, 1.2, 1, domain-1)
	zb := rand.NewZipf(rng, 1.2, 1, domain-1)
	t2.A = make([]uint64, n)
	t2.B = make([]uint64, n)
	for i := 0; i < n; i++ {
		t2.A[i] = za.Uint64()
		t2.B[i] = zb.Uint64()
	}
	return
}

func TestCompassChain3Way(t *testing.T) {
	const n, domain = 20000, 500
	t1, t2, t3 := chainFixture(1, n, domain)
	truth := join.ChainSize(t1, []join.PairTable{t2}, t3)

	famA := hashing.NewFamily(10, 7, 512)
	famB := hashing.NewFamily(11, 7, 512)
	s1 := NewFastAGMS(famA)
	s1.UpdateAll(t1)
	s3 := NewFastAGMS(famB)
	s3.UpdateAll(t3)
	m2 := NewCompassMatrix(famA, famB)
	m2.UpdateAll(t2.A, t2.B)

	est := CompassChain(s1, []*CompassMatrix{m2}, s3)
	if re := math.Abs(est-truth) / truth; re > 0.15 {
		t.Fatalf("3-way COMPASS RE = %.3f (est %.0f truth %.0f)", re, est, truth)
	}
}

func TestCompassChain4Way(t *testing.T) {
	const n, domain = 15000, 300
	t1, t2, t4 := chainFixture(3, n, domain)
	// Third table T3(B,C).
	rng := rand.New(rand.NewSource(99))
	zb := rand.NewZipf(rng, 1.2, 1, domain-1)
	zc := rand.NewZipf(rng, 1.2, 1, domain-1)
	t3 := join.PairTable{A: make([]uint64, n), B: make([]uint64, n)}
	for i := 0; i < n; i++ {
		t3.A[i] = zb.Uint64()
		t3.B[i] = zc.Uint64()
	}
	truth := join.ChainSize(t1, []join.PairTable{t2, t3}, t4)

	famA := hashing.NewFamily(20, 7, 256)
	famB := hashing.NewFamily(21, 7, 256)
	famC := hashing.NewFamily(22, 7, 256)
	s1 := NewFastAGMS(famA)
	s1.UpdateAll(t1)
	s4 := NewFastAGMS(famC)
	s4.UpdateAll(t4)
	m2 := NewCompassMatrix(famA, famB)
	m2.UpdateAll(t2.A, t2.B)
	m3 := NewCompassMatrix(famB, famC)
	m3.UpdateAll(t3.A, t3.B)

	est := CompassChain(s1, []*CompassMatrix{m2, m3}, s4)
	if truth == 0 {
		t.Fatal("fixture produced empty chain join")
	}
	if re := math.Abs(est-truth) / truth; re > 0.3 {
		t.Fatalf("4-way COMPASS RE = %.3f (est %.0f truth %.0f)", re, est, truth)
	}
}

func TestCompassMatrixSingleton(t *testing.T) {
	famA := hashing.NewFamily(1, 3, 16)
	famB := hashing.NewFamily(2, 3, 16)
	m := NewCompassMatrix(famA, famB)
	m.Update(5, 9)
	k := m.K()
	if k != 3 {
		t.Fatalf("K = %d, want 3", k)
	}
	for j := 0; j < k; j++ {
		// The unit vector at row ra picks that row of the 16×16 matrix out.
		ra, rb := famA.Bucket(j, 5), famB.Bucket(j, 9)
		unit := make([]float64, 16)
		unit[ra] = 1
		row := m.VecMat(j, unit)
		if len(row) != 16 {
			t.Fatalf("replica %d row has %d cells, want 16", j, len(row))
		}
		want := float64(famA.Sign(j, 5) * famB.Sign(j, 9))
		for y, got := range row {
			if y == rb && got != want || y != rb && got != 0 {
				t.Fatalf("replica %d cell [%d,%d] = %g, want only [%d,%d] = %g", j, ra, y, got, ra, rb, want)
			}
		}
	}
}

func TestCompassChainExactWhenNoCollisions(t *testing.T) {
	// Tiny distinct values, huge m: no hash collisions, so the chain
	// estimate is exact.
	famA := hashing.NewFamily(5, 3, 4096)
	famB := hashing.NewFamily(6, 3, 4096)
	t1 := []uint64{1, 1, 2}
	t2 := join.PairTable{A: []uint64{1, 2, 3}, B: []uint64{4, 5, 4}}
	t3 := []uint64{4, 4, 5}
	truth := join.ChainSize(t1, []join.PairTable{t2}, t3)
	s1 := NewFastAGMS(famA)
	s1.UpdateAll(t1)
	s3 := NewFastAGMS(famB)
	s3.UpdateAll(t3)
	m2 := NewCompassMatrix(famA, famB)
	m2.UpdateAll(t2.A, t2.B)
	est := CompassChain(s1, []*CompassMatrix{m2}, s3)
	if math.Abs(est-truth) > 1e-9 {
		t.Fatalf("collision-free chain = %g, want exact %g", est, truth)
	}
}

func TestCompassPanics(t *testing.T) {
	famA := hashing.NewFamily(1, 2, 16)
	famB := hashing.NewFamily(2, 3, 16)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on K mismatch in NewCompassMatrix")
			}
		}()
		NewCompassMatrix(famA, famB)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on UpdateAll length mismatch")
			}
		}()
		famB2 := hashing.NewFamily(2, 2, 16)
		NewCompassMatrix(famA, famB2).UpdateAll([]uint64{1}, []uint64{1, 2})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on chain K mismatch")
			}
		}()
		famB2 := hashing.NewFamily(2, 2, 16)
		left := NewFastAGMS(famA)
		right := NewFastAGMS(hashing.NewFamily(3, 3, 16))
		CompassChain(left, []*CompassMatrix{NewCompassMatrix(famA, famB2)}, right)
	}()
}

func TestCompassVecMatPanics(t *testing.T) {
	famA := hashing.NewFamily(1, 2, 8)
	famB := hashing.NewFamily(2, 2, 8)
	c := NewCompassMatrix(famA, famB)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.VecMat(0, make([]float64, 9))
}
