package core

import (
	"fmt"
	"math"
	"testing"

	"ldpjoin/internal/hashing"
)

// TestAddBatchEveryY holds both AddBatch kernels against the rule they
// replaced a branch with — "a report folds iff its indices are inside
// the sketch and Y is +1 or −1" — over all 256 values of Y at every
// boundary index: the skipped count (through N), the text of the first
// error, and the cells.
func TestAddBatchEveryY(t *testing.T) {
	p := Params{K: 3, M: 8, Epsilon: 2}
	fam := hashing.NewFamily(1, p.K, p.M)
	rows := []uint32{0, uint32(p.K) - 1, uint32(p.K), math.MaxUint16, math.MaxUint32}
	cols := []uint32{0, uint32(p.M) - 1, uint32(p.M), 1 << 31, math.MaxUint32}

	var reports []Report
	for y := math.MinInt8; y <= math.MaxInt8; y++ {
		for _, row := range rows {
			for _, col := range cols {
				reports = append(reports, Report{Y: int8(y), Row: row, Col: col})
			}
		}
	}
	want := make([][]int32, p.K)
	for j := range want {
		want[j] = make([]int32, p.M)
	}
	var wantN float64
	var wantErr string
	for _, r := range reports {
		if int(r.Row) < p.K && int(r.Col) < p.M && (r.Y == 1 || r.Y == -1) {
			want[r.Row][r.Col] += int32(r.Y)
			wantN++
		} else if wantErr == "" {
			wantErr = fmt.Sprintf("core: report (y=%d, row=%d, col=%d) out of sketch bounds (%d, %d)",
				r.Y, r.Row, r.Col, p.K, p.M)
		}
	}
	agg := NewAggregator(p, fam)
	// A cell two valid reports of opposite sign cancel in must not hide a
	// wrong fold: give every cell a distinct starting value.
	for j := range agg.rows {
		for x := range agg.rows[j] {
			agg.rows[j][x] = int32(100*j + x)
			want[j][x] += int32(100*j + x)
		}
	}
	err := agg.AddBatch(reports)
	if err == nil || err.Error() != wantErr {
		t.Fatalf("first error %v, want %s", err, wantErr)
	}
	if agg.N() != wantN {
		t.Fatalf("N = %g after %d reports, want %g", agg.N(), len(reports), wantN)
	}
	for j := range want {
		for x := range want[j] {
			if agg.rows[j][x] != want[j][x] {
				t.Fatalf("cell [%d, %d] = %d, want %d", j, x, agg.rows[j][x], want[j][x])
			}
		}
	}
	if err := agg.AddBatch([]Report{{Y: -1, Row: 2, Col: 7}, {Y: 1}}); err != nil || agg.N() != wantN+2 {
		t.Fatalf("a clean batch after a dirty one: err %v, N %g, want nil and %g", err, agg.N(), wantN+2)
	}

	mp := MatrixParams{K: 3, M1: 8, M2: 4, Epsilon: 2}
	l2s := []uint32{0, uint32(mp.M2) - 1, uint32(mp.M2), math.MaxUint32}
	var tuples []MatrixReport
	for y := math.MinInt8; y <= math.MaxInt8; y++ {
		for _, row := range rows {
			for _, l1 := range cols {
				for _, l2 := range l2s {
					tuples = append(tuples, MatrixReport{Y: int8(y), Row: row, L1: l1, L2: l2})
				}
			}
		}
	}
	// Distinct starting counts, as above: a restored aggregator holding
	// 100·j+i+1 at cell i of replica j.
	cells := mp.M1 * mp.M2
	start := make([][]MatrixEntry, mp.K)
	wantMats := make([][]int64, mp.K)
	var n0 float64
	for j := range start {
		wantMats[j] = make([]int64, cells)
		for i := 0; i < cells; i++ {
			c := int32(100*j + i + 1)
			start[j] = append(start[j], MatrixEntry{Cell: uint32(i), Count: c})
			wantMats[j][i] = int64(c)
			n0 += float64(c)
		}
	}
	ma, err := RestoreMatrixAggregator(mp, fam, hashing.NewFamily(2, mp.K, mp.M2), start, n0)
	if err != nil {
		t.Fatal(err)
	}
	wantN, wantErr = n0, ""
	for _, r := range tuples {
		if int(r.Row) < mp.K && int(r.L1) < mp.M1 && int(r.L2) < mp.M2 && (r.Y == 1 || r.Y == -1) {
			wantMats[r.Row][int(r.L1)*mp.M2+int(r.L2)] += int64(r.Y)
			wantN++
		} else if wantErr == "" {
			wantErr = fmt.Sprintf("core: matrix report (y=%d, row=%d, l1=%d, l2=%d) out of sketch bounds (%d, %d, %d)",
				r.Y, r.Row, r.L1, r.L2, mp.K, mp.M1, mp.M2)
		}
	}
	err = ma.AddBatch(tuples)
	if err == nil || err.Error() != wantErr {
		t.Fatalf("matrix: first error %v, want %s", err, wantErr)
	}
	if ma.N() != wantN {
		t.Fatalf("matrix: N = %g after %d reports, want %g", ma.N(), len(tuples), wantN)
	}
	for j, run := range ma.Runs() {
		got := make([]int64, cells)
		for _, e := range run {
			got[e.Cell] = int64(e.Count)
		}
		for i := range got {
			if got[i] != wantMats[j][i] {
				t.Fatalf("matrix: cell [%d, %d] = %d, want %d", j, i, got[i], wantMats[j][i])
			}
		}
	}
}
