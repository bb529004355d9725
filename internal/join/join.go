// Package join computes exact join sizes and frequency statistics. It is
// the ground truth every estimator in the repository is measured against:
// the join size of two attributes is the inner product of their frequency
// vectors, |A ⋈ B| = Σ_d f_A(d)·f_B(d), and chain multiway joins factor
// into sparse matrix-vector products over per-table frequency maps.
package join

// Frequencies returns the frequency map of data.
func Frequencies(data []uint64) map[uint64]int64 {
	f := make(map[uint64]int64)
	for _, d := range data {
		f[d]++
	}
	return f
}

// Size returns the exact join size |A ⋈ B| = Σ_d f_A(d)·f_B(d).
func Size(a, b []uint64) float64 {
	return SizeFromFreqs(Frequencies(a), Frequencies(b))
}

// SizeFromFreqs returns Σ_d fa(d)·fb(d), iterating the smaller map.
func SizeFromFreqs(fa, fb map[uint64]int64) float64 {
	if len(fb) < len(fa) {
		fa, fb = fb, fa
	}
	var s float64
	for d, ca := range fa {
		if cb, ok := fb[d]; ok {
			s += float64(ca) * float64(cb)
		}
	}
	return s
}

// F1 returns the first frequency moment of data: its length.
func F1(data []uint64) float64 { return float64(len(data)) }

// F2 returns the exact second frequency moment Σ_d f(d)².
func F2(data []uint64) float64 {
	var s float64
	for _, c := range Frequencies(data) {
		s += float64(c) * float64(c)
	}
	return s
}

// PairTable is a two-attribute table: column A joins to the left, column B
// to the right. Rows are (A[i], B[i]).
type PairTable struct {
	A []uint64
	B []uint64
}

// Len returns the number of rows.
func (t PairTable) Len() int { return len(t.A) }

// ChainSize returns the exact size of the chain join
// left(A0) ⋈ mids[0](A0,A1) ⋈ ... ⋈ mids[n-1](A_{n-1},A_n) ⋈ right(A_n),
// computed by dynamic programming over frequency maps: O(total rows).
func ChainSize(left []uint64, mids []PairTable, right []uint64) float64 {
	v := make(map[uint64]float64, len(left))
	for _, d := range left {
		v[d]++
	}
	for _, t := range mids {
		if len(t.A) != len(t.B) {
			panic("join: PairTable columns of unequal length")
		}
		next := make(map[uint64]float64)
		for i := range t.A {
			if w, ok := v[t.A[i]]; ok && w != 0 {
				next[t.B[i]] += w
			}
		}
		v = next
	}
	var s float64
	for _, d := range right {
		s += v[d]
	}
	return s
}
