package sketch

import (
	"math"
	"testing"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/join"
)

func TestCompassCycleAccuracy(t *testing.T) {
	const n, domain = 30000, 80
	t1 := join.PairTable{A: zipfData(1, n, domain, 1.3), B: zipfData(2, n, domain, 1.3)}
	t2 := join.PairTable{A: zipfData(3, n, domain, 1.3), B: zipfData(4, n, domain, 1.3)}
	t3 := join.PairTable{A: zipfData(5, n, domain, 1.3), B: zipfData(6, n, domain, 1.3)}
	truth := join.CycleSize(t1, t2, t3)
	if truth <= 0 {
		t.Fatal("degenerate fixture")
	}
	const k, m = 7, 128
	famA := hashing.NewFamily(10, k, m)
	famB := hashing.NewFamily(11, k, m)
	famC := hashing.NewFamily(12, k, m)
	m1 := NewCompassMatrix(famA, famB)
	m1.UpdateAll(t1.A, t1.B)
	m2 := NewCompassMatrix(famB, famC)
	m2.UpdateAll(t2.A, t2.B)
	m3 := NewCompassMatrix(famC, famA)
	m3.UpdateAll(t3.A, t3.B)
	est := CompassCycle(m1, m2, m3)
	if re := math.Abs(est-truth) / truth; re > 0.35 {
		t.Fatalf("cycle RE = %.3f (est %.4g truth %.4g)", re, est, truth)
	}
}

func TestCompassCyclePanics(t *testing.T) {
	const k, m = 2, 16
	famA := hashing.NewFamily(1, k, m)
	famB := hashing.NewFamily(2, k, m)
	famC := hashing.NewFamily(3, k, m)
	m1 := NewCompassMatrix(famA, famB)
	m2 := NewCompassMatrix(famB, famC)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for broken family cycle")
			}
		}()
		CompassCycle(m1, m2, NewCompassMatrix(famC, famB))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for K mismatch")
			}
		}()
		famC3 := hashing.NewFamily(3, 3, m)
		famA3 := hashing.NewFamily(1, 3, m)
		CompassCycle(m1, m2, NewCompassMatrix(famC3, famA3))
	}()
}

func TestFastAGMSAccessors(t *testing.T) {
	fam := hashing.NewFamily(1, 4, 64)
	s := NewFastAGMS(fam)
	if s.K() != 4 || len(s.Row(3)) != 64 {
		t.Fatalf("accessors wrong: K=%d, row width %d", s.K(), len(s.Row(3)))
	}
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
