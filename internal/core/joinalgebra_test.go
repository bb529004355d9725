package core

import (
	"math/rand"
	"testing"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
)

// countJoin is the median over rows of the shifted product of two
// sketches' restored rows, computed from their counts alone: H is
// symmetric with H·H = m·I, so for s = c·H·a, s_A·s_B = c_A·c_B·m·(a·b),
// and a restored row sums to 1ᵀ·c·H·a = c·m·a[0] (only H's first
// column sums to anything), so Σ_x (s_A[x]−ca)·(s_B[x]−cb) =
// m·(c_A·c_B·(a·b) − cb·c_A·a[0] − ca·c_B·b[0] + ca·cb).
func countJoin(sa, sb *Sketch, ca, cb float64) float64 {
	m := float64(sa.params.M)
	ests := make([]float64, sa.params.K)
	rowsA, rowsB := sa.Counts(), sb.Counts()
	for j := range ests {
		a, b := rowsA[j], rowsB[j]
		var dot int64
		for x := range a {
			dot += int64(a[x]) * int64(b[x])
		}
		ests[j] = m * (sa.scale*sb.scale*float64(dot) - cb*sa.scale*float64(a[0]) - ca*sb.scale*float64(b[0]) + ca*cb)
	}
	return kernel.MedianInPlace(ests)
}

// TestJoinSizeMatchesCountAlgebra: the estimators over restored rows
// equal the same products computed in the report domain from the counts
// alone, to 1e-12 relative — JoinSize, and JoinSizeShifted at the
// offsets a plus join subtracts (Theorem 8's |NT|/m, of the order of a
// cell) and beyond, at K within and beyond maxStackK.
func TestJoinSizeMatchesCountAlgebra(t *testing.T) {
	for _, p := range []Params{
		{K: 5, M: 64, Epsilon: 1},
		{K: 9, M: 256, Epsilon: 4},
		{K: 18, M: 1024, Epsilon: 4},
		{K: 40, M: 256, Epsilon: 4},
	} {
		fam := hashing.NewFamily(31, p.K, p.M)
		a, b := NewAggregator(p, fam), NewAggregator(p, fam)
		rng := rand.New(rand.NewSource(32))
		for i := 0; i < 20000; i++ {
			// Skewed: a tenth of the reports share one value, so the join
			// is far from zero and relative error means something.
			d := uint64(rng.Intn(1000))
			if i%10 == 0 {
				d = 7
			}
			a.Add(Perturb(d, p, fam, rng))
			b.Add(Perturb(d, p, fam, rng))
		}
		sa, sb := a.Finalize(), b.Finalize()
		assertClose(t, "JoinSize", sa.JoinSize(sb), countJoin(sa, sb, 0, 0))
		for _, c := range [][2]float64{{1.5, 0}, {0, 2.25}, {3.75, 1.5}, {-2, 7}, {40, 30}} {
			assertClose(t, "JoinSizeShifted", sa.JoinSizeShifted(sb, c[0], c[1]), countJoin(sa, sb, c[0], c[1]))
		}
	}
}

// TestRestoredSketchKeepsExactCounts: a restored sketch drops its counts
// and rounds them back out of its restored rows; they must come back
// integer for integer — for random state, and for counts as large as a
// row can hold, one cell taking almost every report of 2³¹−1.
// TestChainEstimateMatchesDenseReference holds a chain to the same
// counts either way.
func TestRestoredSketchKeepsExactCounts(t *testing.T) {
	for _, p := range []Params{{K: 3, M: 1024, Epsilon: 0.1}, {K: 18, M: 1 << 14, Epsilon: 4}} {
		fam := p.NewFamily(9)
		rng := rand.New(rand.NewSource(10))
		rows := make([][]int32, p.K)
		var abs int64
		for j := range rows {
			rows[j] = make([]int32, p.M)
			for x := range rows[j] {
				rows[j][x] = int32(rng.Intn(2001) - 1000)
				abs += int64(max(rows[j][x], -rows[j][x]))
			}
		}
		rows[0][p.M-1] = MaxReports - int32(abs) - 1
		abs += int64(rows[0][p.M-1])
		n := float64(abs + abs%2) // parity of Σcount is the parity of Σ|count|
		want := make([][]int32, p.K)
		for j := range rows {
			want[j] = append([]int32(nil), rows[j]...)
		}
		s, err := RestoreSketch(p, fam, rows, n)
		if err != nil {
			t.Fatal(err)
		}
		s.cells()
		if s.counts.Load() != nil {
			t.Fatal("a restored sketch kept its counts")
		}
		for j, row := range s.Counts() {
			for x, c := range row {
				if c != want[j][x] {
					t.Fatalf("K=%d M=%d: count [%d,%d] = %d after the restore, want %d", p.K, p.M, j, x, c, want[j][x])
				}
			}
		}
	}
}
