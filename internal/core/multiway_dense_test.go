package core

import (
	"math"
	"math/rand"
	"testing"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
)

// The dense reference: the COMPASS counter matrices a MatrixSketch
// stands for, restored cell by cell out of the double Hadamard domain,
// and the estimators computed over them literally. The served
// estimators never build these matrices; the tests below pin them to
// this reading.

// denseReplica restores replica j as the row-major M1×M2 matrix
// M_j = c·H·Y_j·H: the counts, scaled, transformed along l2 (each row),
// then along l1 (each column).
func denseReplica(ms *MatrixSketch, j int) []float64 {
	m1, m2 := ms.params.M1, ms.params.M2
	mat := make([]float64, m1*m2)
	for _, e := range ms.runs[j] {
		mat[e.Cell] = float64(e.Count)
	}
	for x := 0; x < m1; x++ {
		kernel.FWHTScaled(mat[x*m2:(x+1)*m2], ms.scale)
	}
	col := make([]float64, m1)
	for y := 0; y < m2; y++ {
		for x := 0; x < m1; x++ {
			col[x] = mat[x*m2+y]
		}
		kernel.FWHT(col)
		for x := 0; x < m1; x++ {
			mat[x*m2+y] = col[x]
		}
	}
	return mat
}

// denseVecMat returns v × mat for a row-major m1×m2 matrix:
// out[y] = Σ_x v[x]·mat[x, y].
func denseVecMat(mat []float64, m1, m2 int, v []float64) []float64 {
	out := make([]float64, m2)
	for x := 0; x < m1; x++ {
		for y, c := range mat[x*m2 : (x+1)*m2] {
			out[y] += v[x] * c
		}
	}
	return out
}

// denseChainEstimate is ChainEstimate over restored matrices: per
// replica, the left row times each middle in turn, dotted with the
// right row.
func denseChainEstimate(left *Sketch, mids []*MatrixSketch, right *Sketch) float64 {
	ests := make([]float64, left.params.K)
	for j := range ests {
		v := left.Row(j)
		for _, m := range mids {
			v = denseVecMat(denseReplica(m, j), m.params.M1, m.params.M2, v)
		}
		ests[j] = kernel.Dot(v, right.Row(j))
	}
	return kernel.MedianInPlace(ests)
}

// filledMatrix returns a finalized matrix sketch over n tuples drawn
// uniformly from [0, domain)².
func filledMatrix(p MatrixParams, famA, famB *hashing.Family, n int, domain int, rng *rand.Rand) *MatrixSketch {
	ma := NewMatrixAggregator(p, famA, famB)
	for i := 0; i < n; i++ {
		ma.Add(PerturbTuple(uint64(rng.Intn(domain)), uint64(rng.Intn(domain)), p, famA, famB, rng))
	}
	return ma.Finalize()
}

// filledEnd returns a finalized end sketch over n values from [0, domain).
func filledEnd(p Params, fam *hashing.Family, n int, domain int, rng *rand.Rand) *Sketch {
	agg := NewAggregator(p, fam)
	for i := 0; i < n; i++ {
		agg.Add(Perturb(uint64(rng.Intn(domain)), p, fam, rng))
	}
	return agg.Finalize()
}

func assertClose(t *testing.T, what string, got, want float64) {
	t.Helper()
	if re := math.Abs(got-want) / math.Abs(want); !(re <= 1e-12) {
		t.Fatalf("%s: %v, dense reference %v (relative difference %.3g)", what, got, want, re)
	}
}

// TestChainEstimateMatchesDenseReference: the report-domain chain
// estimate equals the dense one — end rows times restored matrices — to
// 1e-12 relative, for one and two middles, non-square middles, the bench
// shape, and K beyond maxStackK.
func TestChainEstimateMatchesDenseReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		k      int
		dims   []int // attribute widths: dims[i] × dims[i+1] is middle i
		n      int
		domain int
	}{
		{"one middle", 5, []int{64, 64}, 5000, 300},
		{"one middle, non-square", 7, []int{32, 128}, 5000, 300},
		{"two middles", 5, []int{64, 32, 128}, 8000, 200},
		{"bench shape", 18, []int{1024, 1024}, 20000, 1 << 16},
		{"K beyond maxStackK", 40, []int{64, 64}, 5000, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const eps = 4
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			fams := make([]*hashing.Family, len(tc.dims))
			for i, m := range tc.dims {
				fams[i] = hashing.NewFamily(int64(100+i), tc.k, m)
			}
			last := len(tc.dims) - 1
			left := filledEnd(Params{K: tc.k, M: tc.dims[0], Epsilon: eps}, fams[0], tc.n, tc.domain, rng)
			right := filledEnd(Params{K: tc.k, M: tc.dims[last], Epsilon: eps}, fams[last], tc.n, tc.domain, rng)
			mids := make([]*MatrixSketch, last)
			for i := range mids {
				p := MatrixParams{K: tc.k, M1: tc.dims[i], M2: tc.dims[i+1], Epsilon: eps}
				mids[i] = filledMatrix(p, fams[i], fams[i+1], tc.n, tc.domain, rng)
			}
			fromCounts := ChainEstimate(left, mids, right)
			assertClose(t, "chain estimate", fromCounts, denseChainEstimate(left, mids, right))
			// The dense reference restored both ends, which dropped their
			// counts: the chain now rounds them back out of the restored
			// rows, and must not change by one bit.
			if got := ChainEstimate(left, mids, right); got != fromCounts {
				t.Fatalf("chain over restored ends %v, over counts %v", got, fromCounts)
			}
		})
	}
}
