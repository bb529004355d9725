package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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
// and Counts derives them back out of its restored rows; they must come
// back integer for integer — for random state, and for counts as large
// as a row can hold, one cell taking almost every report of 2³¹−1. The
// first call derives and keeps them: a second returns the same rows, and
// a chain over the restored end reads the integers the unrestored end
// held, so its estimate is the same bit for bit. A Merge after the
// derive sums the counts exactly and drops the restored rows, so the
// next join restores the sum.
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
		want := cloneCounts(rows)
		s, err := RestoreSketch(p, fam, rows, n)
		if err != nil {
			t.Fatal(err)
		}
		mp := MatrixParams{K: p.K, M1: p.M, M2: 64, Epsilon: p.Epsilon}
		famB := Params{K: p.K, M: mp.M2, Epsilon: p.Epsilon}.NewFamily(11)
		mids := []*MatrixSketch{filledMatrix(mp, fam, famB, 5000, 500, rng)}
		right := filledEnd(Params{K: p.K, M: mp.M2, Epsilon: p.Epsilon}, famB, 5000, 500, rng)
		unrestored := ChainEstimate(s, mids, right)

		s.cells()
		if s.counts.Load() != nil {
			t.Fatal("a restored sketch kept its counts")
		}
		derived := s.Counts()
		assertCounts(t, derived, want, "K=%d M=%d after the restore", p.K, p.M)
		for j, row := range s.Counts() {
			if &row[0] != &derived[j][0] {
				t.Fatalf("K=%d M=%d: a second Counts derived row %d again", p.K, p.M, j)
			}
		}
		if got := ChainEstimate(s, mids, right); math.Float64bits(got) != math.Float64bits(unrestored) {
			t.Fatalf("K=%d M=%d: chain over the restored end %v, over the unrestored one %v", p.K, p.M, got, unrestored)
		}
	}

	// Merge after the derive: the restored rows go, the counts sum.
	p := Params{K: 3, M: 1024, Epsilon: 2}
	fam := p.NewFamily(12)
	rng := rand.New(rand.NewSource(13))
	a, b := filledEnd(p, fam, 3000, 200, rng), filledEnd(p, fam, 2000, 200, rng)
	want := cloneCounts(a.Counts())
	addCounts(want, b.Counts())
	a.JoinSize(b)
	a.Counts()
	a.Merge(b)
	if a.restored.Load() != nil {
		t.Fatal("a merged sketch kept its restored rows")
	}
	assertCounts(t, a.Counts(), want, "merged after the derive")
	ref, err := RestoreSketch(p, fam, cloneCounts(want), a.N())
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := a.JoinSize(b), ref.JoinSize(b); math.Float64bits(got) != math.Float64bits(exp) {
		t.Fatalf("join after the merge %v, over the summed counts %v", got, exp)
	}
}

// cloneCounts returns a deep copy of K rows of counts.
func cloneCounts(rows [][]int32) [][]int32 {
	out := make([][]int32, len(rows))
	for j, row := range rows {
		out[j] = slices.Clone(row)
	}
	return out
}

// assertCounts fails unless got holds want's counts, integer for integer.
func assertCounts(t *testing.T, got, want [][]int32, format string, args ...any) {
	t.Helper()
	for j, row := range want {
		for x, c := range row {
			if got[j][x] != c {
				t.Fatalf("%s: count [%d,%d] = %d, want %d", fmt.Sprintf(format, args...), j, x, got[j][x], c)
			}
		}
	}
}

// TestConcurrentRestoredEndQueries runs chains, joins, frequency lookups
// and Counts at once on one restored sketch whose counts are not yet
// derived — all racing to derive them, and the joins reading the
// restored rows beside them — and checks every answer against the same
// queries asked serially; run under -race it is the derive's race
// canary.
func TestConcurrentRestoredEndQueries(t *testing.T) {
	p := Params{K: 18, M: 256, Epsilon: 4}
	mp := MatrixParams{K: p.K, M1: p.M, M2: p.M, Epsilon: p.Epsilon}
	famA, famB := p.NewFamily(21), p.NewFamily(22)
	rng := rand.New(rand.NewSource(23))
	ref, other := filledEnd(p, famA, 4000, 300, rng), filledEnd(p, famA, 4000, 300, rng)
	mids := []*MatrixSketch{filledMatrix(mp, famA, famB, 4000, 300, rng)}
	right := filledEnd(p, famB, 4000, 300, rng)
	want := cloneCounts(ref.Counts())
	chain, join, freq := ChainEstimate(ref, mids, right), ref.JoinSize(other), ref.FrequencyMedian(7)

	for round := 0; round < 4; round++ {
		s, err := RestoreSketch(p, famA, cloneCounts(want), ref.N())
		if err != nil {
			t.Fatal(err)
		}
		s.cells()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got float64
				switch g % 4 {
				case 0:
					if got = ChainEstimate(s, mids, right); got != chain {
						t.Errorf("round %d: chain %v, serial %v", round, got, chain)
					}
				case 1:
					if got = s.JoinSize(other); got != join {
						t.Errorf("round %d: join %v, serial %v", round, got, join)
					}
				case 2:
					if got = s.FrequencyMedian(7); got != freq {
						t.Errorf("round %d: frequency %v, serial %v", round, got, freq)
					}
				default:
					if !slices.EqualFunc(s.Counts(), want, slices.Equal[[]int32]) {
						t.Errorf("round %d: derived counts differ from the sketch's own", round)
					}
				}
			}()
		}
		wg.Wait()
	}
}
