package kernel

import "math/bits"

// Entry returns H_m[i][j] = (-1)^popcount(i & j), the closed form of the
// order-m Hadamard matrix defined recursively by H_1 = [1],
// H_m = [[H_{m/2}, H_{m/2}], [H_{m/2}, -H_{m/2}]]. The order does not
// appear because the closed form is order-independent as long as i, j
// are in range. It lets a client compute the one sampled coordinate of
// v × H_m in O(1) (Algorithm 1) without materializing anything.
func Entry(i, j int) int {
	if bits.OnesCount64(uint64(i)&uint64(j))&1 == 0 {
		return 1
	}
	return -1
}

// IsPowerOfTwo reports whether n is a positive power of two: a valid
// Hadamard order, and so a valid sketch width.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// fwhtBlock is the cache-block span in float64s (32 KiB): a row longer
// than this runs its low stages block-local first, so every butterfly
// of those stages touches memory that is already cache-resident,
// before the high stages stride across blocks. Blocking reorders only
// the execution schedule, never the dataflow — each butterfly still
// combines exactly the same two values — so blocked and unblocked
// output are bit-identical.
const fwhtBlock = 4096

// FWHT applies the in-place fast Walsh–Hadamard transform, v ← v × H_m
// with m = len(v) (a power of two). The transform is its own inverse up
// to a factor m — FWHT(FWHT(v)) = m·v — which is why Algorithm 2
// restores a sketch by multiplying with H_m^T = H_m. It is bit-exact
// with the textbook radix-2 butterfly: radix-4 fusion performs the same
// additions on the same operands, merely skipping the intermediate
// store, and IEEE 754 operations are deterministic functions of their
// operands (TestFWHTBitExact keeps the butterfly as its reference).
// The four lowest stages run on 16-element blocks held in registers
// (fwht16), where the strided loops of fwhtStages would spend more on
// sub-slicing than on arithmetic.
func FWHT(v []float64) {
	n := len(v)
	if !IsPowerOfTwo(n) {
		panic("kernel: FWHT length must be a power of two")
	}
	if n < 16 {
		fwhtStages(v, 1)
		return
	}
	if n <= fwhtBlock {
		fwht16(v)
		fwhtStages(v, 16)
		return
	}
	for i := 0; i < n; i += fwhtBlock {
		blk := v[i : i+fwhtBlock]
		fwht16(blk)
		fwhtStages(blk, 16)
	}
	fwhtStages(v, fwhtBlock)
}

// fwht16 runs the butterfly stages h = 1, 2, 4, 8 over each 16-element
// block of v, in registers: each stage combines the same operand pairs
// as the radix-2 butterfly, in the same stage order. len(v) must be a
// multiple of 16.
func fwht16(v []float64) {
	for i := 0; i < len(v); i += 16 {
		b := (*[16]float64)(v[i : i+16])
		x0, x1, x2, x3 := b[0]+b[1], b[0]-b[1], b[2]+b[3], b[2]-b[3]
		x4, x5, x6, x7 := b[4]+b[5], b[4]-b[5], b[6]+b[7], b[6]-b[7]
		x8, x9, x10, x11 := b[8]+b[9], b[8]-b[9], b[10]+b[11], b[10]-b[11]
		x12, x13, x14, x15 := b[12]+b[13], b[12]-b[13], b[14]+b[15], b[14]-b[15]

		x0, x1, x2, x3 = x0+x2, x1+x3, x0-x2, x1-x3
		x4, x5, x6, x7 = x4+x6, x5+x7, x4-x6, x5-x7
		x8, x9, x10, x11 = x8+x10, x9+x11, x8-x10, x9-x11
		x12, x13, x14, x15 = x12+x14, x13+x15, x12-x14, x13-x15

		x0, x1, x2, x3, x4, x5, x6, x7 = x0+x4, x1+x5, x2+x6, x3+x7, x0-x4, x1-x5, x2-x6, x3-x7
		x8, x9, x10, x11, x12, x13, x14, x15 = x8+x12, x9+x13, x10+x14, x11+x15, x8-x12, x9-x13, x10-x14, x11-x15

		b[0], b[8] = x0+x8, x0-x8
		b[1], b[9] = x1+x9, x1-x9
		b[2], b[10] = x2+x10, x2-x10
		b[3], b[11] = x3+x11, x3-x11
		b[4], b[12] = x4+x12, x4-x12
		b[5], b[13] = x5+x13, x5-x13
		b[6], b[14] = x6+x14, x6-x14
		b[7], b[15] = x7+x15, x7-x15
	}
}

// FWHTScaled computes FWHT(c·v): the debias-scale-then-restore step of
// Algorithm 2 finalization in one pass. The scale is folded into the
// loads of the first butterfly stage, so every element is still
// multiplied by c exactly once before any addition touches it — the
// result is bit-identical to multiplying every element by c and then
// calling FWHT(v).
func FWHTScaled(v []float64, c float64) {
	n := len(v)
	if !IsPowerOfTwo(n) {
		panic("kernel: FWHTScaled length must be a power of two")
	}
	switch n {
	case 1:
		v[0] *= c
		return
	case 2:
		x, y := v[0]*c, v[1]*c
		v[0], v[1] = x+y, x-y
		return
	}
	if n <= fwhtBlock {
		fwhtScaledStage12(v, c)
		fwhtStages(v, 4)
		return
	}
	for i := 0; i < n; i += fwhtBlock {
		blk := v[i : i+fwhtBlock]
		fwhtScaledStage12(blk, c)
		fwhtStages(blk, 4)
	}
	fwhtStages(v, fwhtBlock)
}

// fwhtScaledStage12 runs the fused h=1,2 butterfly stages with each
// load pre-multiplied by c. len(v) must be a multiple of 4.
func fwhtScaledStage12(v []float64, c float64) {
	for i := 0; i < len(v); i += 4 {
		vv := v[i : i+4 : i+4]
		x0, x1, x2, x3 := vv[0]*c, vv[1]*c, vv[2]*c, vv[3]*c
		a0, a1 := x0+x1, x0-x1
		b0, b1 := x2+x3, x2-x3
		vv[0], vv[1], vv[2], vv[3] = a0+b0, a1+b1, a0-b0, a1-b1
	}
}

// fwhtStages performs the butterfly stages h = h0, 2·h0, 4·h0, … up to
// len(v)/2, fusing adjacent stage pairs radix-4 (one lone radix-2
// stage absorbs an odd stage count). Fusion never changes arithmetic:
// the radix-4 body computes the two radix-2 stages' additions on
// identical operands, keeping the intermediates in registers.
func fwhtStages(v []float64, h0 int) {
	n := len(v)
	for h := h0; h < n; {
		if h<<1 < n {
			// Radix-4: stages h and 2h over each 4h-aligned group.
			h4 := h << 2
			for i := 0; i < n; i += h4 {
				v0 := v[i : i+h : i+h]
				v1 := v[i+h : i+2*h : i+2*h]
				v2 := v[i+2*h : i+3*h : i+3*h]
				v3 := v[i+3*h : i+4*h : i+4*h]
				for j := range v0 {
					a0, a1 := v0[j]+v1[j], v0[j]-v1[j]
					b0, b1 := v2[j]+v3[j], v2[j]-v3[j]
					v0[j], v1[j] = a0+b0, a1+b1
					v2[j], v3[j] = a0-b0, a1-b1
				}
			}
			h = h4
			continue
		}
		// Lone radix-2 stage (h = n/2).
		for i := 0; i < n; i += h << 1 {
			v0 := v[i : i+h : i+h]
			v1 := v[i+h : i+2*h : i+2*h]
			for j := range v0 {
				x, y := v0[j], v1[j]
				v0[j], v1[j] = x+y, x-y
			}
		}
		h <<= 1
	}
}
