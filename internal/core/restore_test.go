package core

import (
	"math"
	"reflect"
	"testing"
)

// restoreFixture is state 10 reports can fold into when four of them
// cancel in pairs: Σ|count| = 6 ≤ 10 and Σcount = 2 ≡ 10 (mod 2).
func restoreFixture() (Params, [][]int32) {
	p := Params{K: 3, M: 8, Epsilon: 2}
	rows := make([][]int32, p.K)
	for j := range rows {
		rows[j] = make([]int32, p.M)
	}
	rows[0][1], rows[1][3], rows[2][7] = 3, -2, 1
	return p, rows
}

func TestRestoreAggregatorValidates(t *testing.T) {
	p, rows := restoreFixture()
	fam := p.NewFamily(5)

	if _, err := RestoreAggregator(p, fam, rows, 10); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if _, err := RestoreAggregator(p, nil, rows, 10); err == nil {
		t.Error("nil family accepted")
	}
	if _, err := RestoreAggregator(p, Params{K: 3, M: 16, Epsilon: 2}.NewFamily(5), rows, 10); err == nil {
		t.Error("family with wrong M accepted")
	}
	if _, err := RestoreAggregator(p, fam, rows[:2], 10); err == nil {
		t.Error("short row set accepted")
	}
	bad := [][]int32{rows[0], rows[1], rows[2][:4]}
	if _, err := RestoreAggregator(p, fam, bad, 10); err == nil {
		t.Error("short row accepted")
	}
	for _, n := range []float64{-2, math.NaN(), math.Inf(1), 10.5, MaxReports + 1, 1e300} {
		if _, err := RestoreAggregator(p, fam, rows, n); err == nil {
			t.Errorf("n = %v accepted", n)
		}
	}
	if _, err := RestoreAggregator(p, fam, rows, 4); err == nil {
		t.Error("counts beyond n in magnitude accepted")
	}
	if _, err := RestoreAggregator(p, fam, rows, 9); err == nil {
		t.Error("counts of the wrong parity accepted")
	}
	if _, err := RestoreSketch(p, fam, rows, 10); err != nil {
		t.Errorf("valid finalized state rejected: %v", err)
	}
	if _, err := RestoreSketch(p, fam, rows[:1], 10); err == nil {
		t.Error("RestoreSketch accepted short row set")
	}
	if _, err := RestoreSketch(p, fam, rows, 7); err == nil {
		t.Error("RestoreSketch accepted counts of the wrong parity")
	}
}

// TestRestoredAggregatorIngestsAndMerges: a restored aggregator is a
// first-class aggregator — it keeps ingesting and merging exactly.
func TestRestoredAggregatorIngestsAndMerges(t *testing.T) {
	p := Params{K: 3, M: 8, Epsilon: 2}
	fam := p.NewFamily(5)
	restored, err := RestoreAggregator(p, fam, NewAggregator(p, fam).Rows(), 0)
	if err != nil {
		t.Fatal(err)
	}
	direct := NewAggregator(p, fam)
	for i := 0; i < 100; i++ {
		r := Report{Y: int8(1 - 2*(i%2)), Row: uint32(i % p.K), Col: uint32(i % p.M)}
		restored.Add(r)
		direct.Add(r)
	}
	other := NewAggregator(p, fam)
	for i := 0; i < 50; i++ {
		r := Report{Y: 1, Row: uint32(i % p.K), Col: uint32((i * 3) % p.M)}
		other.Add(r)
		direct.Add(r)
	}
	if !restored.Compatible(other) {
		t.Fatal("restored aggregator incompatible with a sibling")
	}
	restored.Merge(other)
	a := restored.Finalize()
	b := direct.Finalize()
	for j := 0; j < p.K; j++ {
		for x, v := range a.Row(j) {
			if v != b.Row(j)[x] {
				t.Fatalf("cell [%d,%d]: %v vs %v", j, x, v, b.Row(j)[x])
			}
		}
	}
}

func TestRestoreMatrixValidates(t *testing.T) {
	p := MatrixParams{K: 2, M1: 4, M2: 8, Epsilon: 2}
	famA := Params{K: p.K, M: p.M1, Epsilon: p.Epsilon}.NewFamily(1)
	famB := Params{K: p.K, M: p.M2, Epsilon: p.Epsilon}.NewFamily(2)
	// State 5 reports can fold into when two of them cancel in one cell:
	// Σ|count| = 3 ≤ 5 and Σcount = 1 ≡ 5 (mod 2).
	runs := func() [][]MatrixEntry {
		return [][]MatrixEntry{{{Cell: 5, Count: 1}, {Cell: 31, Count: -1}}, {{Cell: 0, Count: 1}}}
	}

	if _, err := RestoreMatrixAggregator(p, famA, famB, runs(), 5); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if _, err := RestoreMatrixSketch(p, famA, famB, runs(), 5); err != nil {
		t.Fatalf("valid finalized state rejected: %v", err)
	}
	if _, err := RestoreMatrixAggregator(p, famB, famA, runs(), 5); err == nil {
		t.Error("swapped families accepted")
	}
	if _, err := RestoreMatrixAggregator(p, famA, famB, runs()[:1], 5); err == nil {
		t.Error("short replica set accepted")
	}
	for name, mutate := range map[string]func(r [][]MatrixEntry){
		"cell outside the matrix": func(r [][]MatrixEntry) { r[0][1].Cell = 32 },
		"cells out of order":      func(r [][]MatrixEntry) { r[0][0].Cell = 31 },
		"zero count":              func(r [][]MatrixEntry) { r[1][0].Count = 0 },
		"counts beyond n":         func(r [][]MatrixEntry) { r[1][0].Count = 4 },
		"parity":                  func(r [][]MatrixEntry) { r[1][0].Count = 2 },
	} {
		r := runs()
		mutate(r)
		if _, err := RestoreMatrixSketch(p, famA, famB, r, 5); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for _, n := range []float64{math.Inf(1), math.NaN(), -1, 5.5, MaxReports + 1} {
		if _, err := RestoreMatrixAggregator(p, famA, famB, runs(), n); err == nil {
			t.Errorf("n = %v accepted", n)
		}
	}
}

// TestMatrixSketchMergeExact: merging two finalized matrix sketches sums
// their counts — the sketch a single aggregator over both halves builds.
func TestMatrixSketchMergeExact(t *testing.T) {
	p := MatrixParams{K: 2, M1: 4, M2: 4, Epsilon: 2}
	famA := Params{K: p.K, M: p.M1, Epsilon: p.Epsilon}.NewFamily(1)
	famB := Params{K: p.K, M: p.M2, Epsilon: p.Epsilon}.NewFamily(2)

	build := func(lo, hi int) *MatrixSketch {
		ma := NewMatrixAggregator(p, famA, famB)
		for i := lo; i < hi; i++ {
			ma.Add(MatrixReport{Y: int8(1 - 2*(i%2)), Row: uint32(i % p.K), L1: uint32(i % p.M1), L2: uint32((i * 3) % p.M2)})
		}
		return ma.Finalize()
	}
	a, b := build(0, 80), build(80, 200)
	a.Merge(b)
	if a.N() != 200 {
		t.Fatalf("merged N = %v, want 200", a.N())
	}
	if want := build(0, 200); !reflect.DeepEqual(a.Runs(), want.Runs()) {
		t.Fatalf("merged counts %v, want %v", a.Runs(), want.Runs())
	}
	if a.Compatible(build(0, 1)) != true {
		t.Fatal("sibling sketch reported incompatible")
	}
}
