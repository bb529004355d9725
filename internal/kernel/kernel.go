// Package kernel is the hot-path numeric layer: the small set of
// primitives every client report and every server estimate reduces to,
// written to be allocation-free and fast on stock hardware without
// leaving pure Go. Each primitive has exactly one production body here;
// the naive forms survive only as test references.
//
// The paper's server is pure numerics — a join sketch's rows are
// restored from its report counts by K row-wise O(m log m)
// Walsh–Hadamard transforms, a join estimate is K M-cell dot products
// over them, and LDPJoinSketch+ phase 1 is an O(domain·K) frequency
// scan — so these loops are where the serving CPU goes. The package
// provides:
//
//   - Entry / IsPowerOfTwo: the O(1) closed-form Hadamard entry the
//     client perturbation (Algorithm 1) samples, and the width check
//     every Hadamard-order sketch validates against.
//   - FWHT / FWHTScaled: cache-blocked radix-4 fast Walsh–Hadamard
//     transform, bit-exact with the textbook radix-2 butterfly (kept
//     only as the tests' reference) because fusing two radix-2 stages
//     performs the same additions on the same operands. Bit-exactness
//     is a hard requirement, not a nicety: the frequent-item proposal
//     a plus column's advance logs is read off restored rows, and
//     replay must propose the same set, so the transform must produce
//     the same float64s on every code path and every release.
//   - Dot / DotShifted: 4-accumulator unrolled inner products.
//     DotShifted folds a per-operand constant offset into the loop —
//     the Theorem 8 |NT|/m subtraction — so the plus-join path needs no
//     shifted copy of either sketch.
//   - RowApply: a bounded-worker parallel for-loop over independent
//     rows (replicas), used by the restore and the FI scan.
//   - MedianInPlace / Mean: the row reductions — median for the
//     paper's estimators, mean for the ablation that averages rows.
//
// Dot products and medians feed estimates (query results), not
// persisted state, so they are free to reassociate; only the transforms
// are pinned bit-exact (TestFWHTBitExact).
package kernel

// Dot returns the inner product of two equal-length vectors using four
// independent accumulators, which breaks the add-to-add dependency
// chain and lets the CPU pipeline the multiplies. The summation order
// differs from a sequential loop, so results may differ from a naive
// dot in the last few ulps — fine for estimates, which are statistical
// to begin with.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("kernel: Dot of mismatched lengths")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s2) + (s1 + s3)
}

// DotShifted returns Σ_i (a[i]-ca)·(b[i]-cb) without materializing the
// shifted vectors: the allocation-free replacement for
// MinusConstant(ca).JoinSize(MinusConstant(cb)) on the plus-join path
// (Algorithm 5's |NT|/m subtraction, Theorem 8). Each term is computed
// exactly as the copying path computes it — subtract, then multiply —
// only the summation is reassociated across the four accumulators.
func DotShifted(a, b []float64, ca, cb float64) float64 {
	if len(a) != len(b) {
		panic("kernel: DotShifted of mismatched lengths")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += (aa[0] - ca) * (bb[0] - cb)
		s1 += (aa[1] - ca) * (bb[1] - cb)
		s2 += (aa[2] - ca) * (bb[2] - cb)
		s3 += (aa[3] - ca) * (bb[3] - cb)
	}
	for ; i < len(a); i++ {
		s0 += (a[i] - ca) * (b[i] - cb)
	}
	return (s0 + s2) + (s1 + s3)
}
