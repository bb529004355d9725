package core

import (
	"fmt"
	"math"
	"math/rand"

	"ldpjoin/internal/hadamard"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/ldp"
)

// MatrixReport is the message a client holding a two-attribute tuple
// sends in the multiway extension (§VI): one perturbed coefficient of the
// doubly Hadamard-transformed encoding, the sampled replica j, and the
// sampled coordinates (l1, l2).
type MatrixReport struct {
	Y   int8
	Row uint32
	L1  uint32
	L2  uint32
}

// MatrixParams configures a two-attribute (middle) table sketch: K
// replicas of an M1×M2 matrix, budget Epsilon per tuple.
type MatrixParams struct {
	K       int
	M1, M2  int
	Epsilon float64
}

// Validate returns an error when the parameters cannot run the protocol.
func (p MatrixParams) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("core: matrix sketch depth K must be positive, got %d", p.K)
	}
	if !hadamard.IsPowerOfTwo(p.M1) || !hadamard.IsPowerOfTwo(p.M2) {
		return fmt.Errorf("core: matrix sketch dims must be powers of two, got %dx%d", p.M1, p.M2)
	}
	if !(p.Epsilon > 0) {
		return fmt.Errorf("core: privacy budget epsilon must be positive, got %v", p.Epsilon)
	}
	return nil
}

func (p MatrixParams) mustValidate() {
	if err := p.Validate(); err != nil {
		panic(err)
	}
}

// PerturbTuple is the client side for a middle table T(A, B): it encodes
// the tuple as H_{m1}[h_A(a), l1]·ξ_A(a)ξ_B(b)·H_{m2}[l2, h_B(b)] at
// uniformly sampled (j, l1, l2) and flips the sign with probability
// 1/(e^ε+1). Like Perturb, it is O(1) thanks to the Hadamard entry oracle.
func PerturbTuple(a, b uint64, p MatrixParams, famA, famB *hashing.Family, rng *rand.Rand) MatrixReport {
	j := rng.Intn(p.K)
	l1 := rng.Intn(p.M1)
	l2 := rng.Intn(p.M2)
	w := hadamard.Entry(famA.Bucket(j, a), l1) *
		famA.Sign(j, a) * famB.Sign(j, b) *
		hadamard.Entry(l2, famB.Bucket(j, b))
	bit := ldp.SampleBit(rng, p.Epsilon)
	return MatrixReport{Y: bit * int8(w), Row: uint32(j), L1: uint32(l1), L2: uint32(l2)}
}

// MatrixAggregator is the server side for a middle table: it accumulates
// k·c_ε·y at [j, l1, l2] and restores each replica with the 2-dim
// Hadamard transform M̃ = H^T·M·H^T.
type MatrixAggregator struct {
	params MatrixParams
	famA   *hashing.Family
	famB   *hashing.Family
	scale  float64
	mats   [][]float64 // K matrices, M1×M2 row-major
	n      float64
	done   bool
}

// NewMatrixAggregator creates an empty aggregator. famA (the left join
// attribute) must have M = M1, famB M = M2, and both must have K replicas.
func NewMatrixAggregator(p MatrixParams, famA, famB *hashing.Family) *MatrixAggregator {
	p.mustValidate()
	if famA.K() != p.K || famB.K() != p.K || famA.M() != p.M1 || famB.M() != p.M2 {
		panic("core: matrix families do not match params")
	}
	mats := make([][]float64, p.K)
	for j := range mats {
		mats[j] = make([]float64, p.M1*p.M2)
	}
	return &MatrixAggregator{
		params: p,
		famA:   famA,
		famB:   famB,
		scale:  float64(p.K) * ldp.CEpsilon(p.Epsilon),
		mats:   mats,
	}
}

// Add ingests one tuple report (the constant debias scale is applied at
// Finalize, keeping cell contents integral so merges would be exact).
func (ma *MatrixAggregator) Add(r MatrixReport) {
	if ma.done {
		panic("core: MatrixAggregator.Add after Finalize")
	}
	ma.mats[r.Row][int(r.L1)*ma.params.M2+int(r.L2)] += float64(r.Y)
	ma.n++
}

// AddBatch ingests a batch of wire-decoded tuple reports with the same
// skip-and-report bounds check, and the same branch-free treatment of
// the sign, as Aggregator.AddBatch.
//
//ldpjoin:hotpath
func (ma *MatrixAggregator) AddBatch(reports []MatrixReport) error {
	if ma.done {
		panic("core: MatrixAggregator.AddBatch after Finalize")
	}
	p := ma.params
	var err error
	skipped := 0
	for _, r := range reports {
		if int(r.Row) >= p.K || int(r.L1) >= p.M1 || int(r.L2) >= p.M2 || uint8(r.Y+1)&^2 != 0 {
			if err == nil {
				err = ma.boundsError(r)
			}
			skipped++
			continue
		}
		ma.mats[r.Row][int(r.L1)*p.M2+int(r.L2)] += float64(r.Y)
	}
	ma.n += float64(len(reports) - skipped)
	return err
}

// boundsError is the error of a report AddBatch skipped.
func (ma *MatrixAggregator) boundsError(r MatrixReport) error {
	p := ma.params
	return fmt.Errorf("core: matrix report (y=%d, row=%d, l1=%d, l2=%d) out of sketch bounds (%d, %d, %d)",
		r.Y, r.Row, r.L1, r.L2, p.K, p.M1, p.M2)
}

// Merge folds other (not yet finalized, same parameters and families)
// into ma. Like Aggregator.Merge it is exact: unfinalized cells hold
// integers, so merging is order-independent and loses nothing.
func (ma *MatrixAggregator) Merge(other *MatrixAggregator) {
	if ma.done || other.done {
		panic("core: MatrixAggregator.Merge after Finalize")
	}
	if ma.params != other.params || !sameFamily(ma.famA, other.famA) || !sameFamily(ma.famB, other.famB) {
		panic("core: MatrixAggregator.Merge across params or hash families")
	}
	for j := range ma.mats {
		for i, v := range other.mats[j] {
			ma.mats[j][i] += v
		}
	}
	ma.n += other.n
}

// N returns the number of tuples ingested so far.
func (ma *MatrixAggregator) N() float64 { return ma.n }

// Params returns the matrix parameters the aggregator folds under.
func (ma *MatrixAggregator) Params() MatrixParams { return ma.params }

// FamilyA returns the hash family of the left join attribute.
func (ma *MatrixAggregator) FamilyA() *hashing.Family { return ma.famA }

// FamilyB returns the hash family of the right join attribute.
func (ma *MatrixAggregator) FamilyB() *hashing.Family { return ma.famB }

// Done reports whether the aggregator has been finalized.
func (ma *MatrixAggregator) Done() bool { return ma.done }

// Mats returns the raw unfinalized accumulation state — K row-major
// M1×M2 matrices of exact integer sums — without copying. Like
// Aggregator.Rows it exists for the snapshot codec; the caller must not
// mutate it and must be quiescent while exporting.
func (ma *MatrixAggregator) Mats() [][]float64 { return ma.mats }

// Compatible reports whether other accumulates under equal parameters
// and interchangeable attribute families — the precondition for Merge.
func (ma *MatrixAggregator) Compatible(other *MatrixAggregator) bool {
	return ma.params == other.params && sameFamily(ma.famA, other.famA) && sameFamily(ma.famB, other.famB)
}

// restoreMatrixState validates exported matrix state before either
// restore constructor will build an object from it.
func restoreMatrixState(p MatrixParams, famA, famB *hashing.Family, mats [][]float64, n float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if famA == nil || famB == nil || famA.K() != p.K || famB.K() != p.K || famA.M() != p.M1 || famB.M() != p.M2 {
		return fmt.Errorf("core: matrix families do not match params (k=%d, m1=%d, m2=%d)", p.K, p.M1, p.M2)
	}
	if len(mats) != p.K {
		return fmt.Errorf("core: restoring %d replicas into a depth-%d matrix sketch", len(mats), p.K)
	}
	for j, mat := range mats {
		if len(mat) != p.M1*p.M2 {
			return fmt.Errorf("core: restored replica %d has %d cells, want %d", j, len(mat), p.M1*p.M2)
		}
		for i, v := range mat {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: restored matrix cell [%d, %d] is not finite", j, i)
			}
		}
	}
	if n < 0 || n > maxExactCount || math.IsNaN(n) {
		return fmt.Errorf("core: invalid restored tuple count %v", n)
	}
	return nil
}

// RestoreMatrixAggregator rebuilds an unfinalized matrix aggregator from
// exported state, taking ownership of mats.
func RestoreMatrixAggregator(p MatrixParams, famA, famB *hashing.Family, mats [][]float64, n float64) (*MatrixAggregator, error) {
	if err := restoreMatrixState(p, famA, famB, mats, n); err != nil {
		return nil, err
	}
	return &MatrixAggregator{
		params: p,
		famA:   famA,
		famB:   famB,
		scale:  float64(p.K) * ldp.CEpsilon(p.Epsilon),
		mats:   mats,
		n:      n,
	}, nil
}

// RestoreMatrixSketch rebuilds a finalized matrix sketch from exported
// state, taking ownership of mats.
func RestoreMatrixSketch(p MatrixParams, famA, famB *hashing.Family, mats [][]float64, n float64) (*MatrixSketch, error) {
	if err := restoreMatrixState(p, famA, famB, mats, n); err != nil {
		return nil, err
	}
	return &MatrixSketch{params: p, famA: famA, famB: famB, mats: mats, n: n}, nil
}

// CollectTable simulates the protocol for a whole two-column table.
func (ma *MatrixAggregator) CollectTable(a, b []uint64, rng *rand.Rand) {
	if len(a) != len(b) {
		panic("core: CollectTable with mismatched columns")
	}
	for i := range a {
		ma.Add(PerturbTuple(a[i], b[i], ma.params, ma.famA, ma.famB, rng))
	}
}

// Finalize restores every replica out of the double Hadamard domain and
// returns the matrix sketch.
//
// Replicas are independent, so they restore in parallel across
// GOMAXPROCS with one column scratch per worker invocation. Within a
// replica the debias scale is folded into the row transforms
// (FWHTScaled multiplies each cell exactly once before any butterfly
// addition — bit-identical to scaling the whole matrix first), then
// the columns transform with the same radix-4 kernel. Every arithmetic
// operation and its operands match the scale-then-naive-transform
// schedule, so finalized matrix state stays byte-identical to the
// pre-kernel implementation regardless of worker count.
func (ma *MatrixAggregator) Finalize() *MatrixSketch {
	if ma.done {
		panic("core: MatrixAggregator.Finalize called twice")
	}
	ma.done = true
	m1, m2 := ma.params.M1, ma.params.M2
	mats, scale := ma.mats, ma.scale
	kernel.RowApply(len(mats), func(j int) {
		mat := mats[j]
		// Transform along l2 (each row, scale fused), then along l1
		// (each column): H^T·M·H^T with symmetric H.
		for x := 0; x < m1; x++ {
			kernel.FWHTScaled(mat[x*m2:(x+1)*m2], scale)
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
	})
	return &MatrixSketch{params: ma.params, famA: ma.famA, famB: ma.famB, mats: ma.mats, n: ma.n}
}

// MatrixSketch is the finalized two-attribute sketch: replica j holds, in
// expectation, the COMPASS counter matrix of the table (tuple (a,b)
// contributes ξ_A(a)ξ_B(b) at [h_A(a), h_B(b)]).
type MatrixSketch struct {
	params MatrixParams
	famA   *hashing.Family
	famB   *hashing.Family
	mats   [][]float64
	n      float64
}

// K returns the number of replicas.
func (ms *MatrixSketch) K() int { return ms.params.K }

// N returns the number of tuples summarized.
func (ms *MatrixSketch) N() float64 { return ms.n }

// Params returns the matrix parameters the sketch was built with.
func (ms *MatrixSketch) Params() MatrixParams { return ms.params }

// FamilyA returns the hash family of the left join attribute.
func (ms *MatrixSketch) FamilyA() *hashing.Family { return ms.famA }

// FamilyB returns the hash family of the right join attribute.
func (ms *MatrixSketch) FamilyB() *hashing.Family { return ms.famB }

// Compatible reports whether the two sketches can be combined: equal
// parameters and interchangeable attribute families.
func (ms *MatrixSketch) Compatible(other *MatrixSketch) bool {
	return ms.params == other.params && sameFamily(ms.famA, other.famA) && sameFamily(ms.famB, other.famB)
}

// Merge adds other into ms cell-wise. Like Sketch.Merge it is linear and
// unbiased but not bit-identical to merging before finalization; exact
// federation merges unfinalized state. The sketches must be Compatible.
func (ms *MatrixSketch) Merge(other *MatrixSketch) {
	if !ms.Compatible(other) {
		panic("core: MatrixSketch.Merge of incompatible sketches")
	}
	for j := range ms.mats {
		for i, v := range other.mats[j] {
			ms.mats[j][i] += v
		}
	}
	ms.n += other.n
}

// Mat returns replica j, row-major M1×M2 (not a copy).
func (ms *MatrixSketch) Mat(j int) []float64 { return ms.mats[j] }

// VecMat returns v × M_j: out[y] = Σ_x v[x]·M_j[x, y].
func (ms *MatrixSketch) VecMat(j int, v []float64) []float64 {
	out := make([]float64, ms.params.M2)
	ms.VecMatInto(j, v, out)
	return out
}

// VecMatInto computes v × M_j into out (length M2, zeroed here), the
// allocation-free form ChainEstimate ping-pongs through: out[y] =
// Σ_x v[x]·M_j[x, y]. v and out must not alias.
func (ms *MatrixSketch) VecMatInto(j int, v, out []float64) {
	m1, m2 := ms.params.M1, ms.params.M2
	if len(v) != m1 || len(out) != m2 {
		panic("core: VecMat dimension mismatch")
	}
	for y := range out {
		out[y] = 0
	}
	mat := ms.mats[j]
	for x := 0; x < m1; x++ {
		vx := v[x]
		if vx == 0 {
			continue
		}
		row := mat[x*m2 : (x+1)*m2]
		for y, c := range row {
			out[y] += vx * c
		}
	}
}

// CycleEstimate estimates the size of the 3-cycle join
// T1(A,B) ⋈ T2(B,C) ⋈ T3(C,A) from LDP matrix sketches — the
// "uncomplicated cyclic joins" §VI says the encoding handles. Per
// replica j the estimator is the trace of the sketch product,
// Σ_{l1,l2,l3} M1_j[l1,l2]·M2_j[l2,l3]·M3_j[l3,l1], and the final
// estimate is the median over replicas. Adjacent sketches must share
// their attribute families (m1's B side with m2's A side, and so on
// around the cycle).
func CycleEstimate(m1, m2, m3 *MatrixSketch) float64 {
	k := m1.params.K
	if m2.params.K != k || m3.params.K != k {
		panic("core: cycle sketches disagree on K")
	}
	if m1.famB != m2.famA || m2.famB != m3.famA || m3.famB != m1.famA {
		panic("core: cycle sketches do not share attribute families")
	}
	mA, mB := m1.params.M1, m1.params.M2
	mC := m2.params.M2
	var buf [maxStackK]float64
	ests := estScratch(&buf, k)
	prod := make([]float64, mA*mC)
	for j := 0; j < k; j++ {
		// prod = M1_j × M2_j (mA×mC).
		for i := range prod {
			prod[i] = 0
		}
		a1 := m1.mats[j]
		a2 := m2.mats[j]
		for x := 0; x < mA; x++ {
			row1 := a1[x*mB : (x+1)*mB]
			out := prod[x*mC : (x+1)*mC]
			for y, v := range row1 {
				if v == 0 {
					continue
				}
				row2 := a2[y*mC : (y+1)*mC]
				for z, w := range row2 {
					out[z] += v * w
				}
			}
		}
		// trace(prod × M3_j): Σ_{x,z} prod[x,z]·M3[z,x].
		a3 := m3.mats[j]
		var tr float64
		for x := 0; x < mA; x++ {
			for z := 0; z < mC; z++ {
				tr += prod[x*mC+z] * a3[z*mA+x]
			}
		}
		ests = append(ests, tr)
	}
	return kernel.MedianInPlace(ests)
}

// ChainEstimate estimates the size of the chain join
// left(A0) ⋈ mids[0](A0,A1) ⋈ ... ⋈ right(A_n) from LDP sketches (Eq 27
// generalized to a chain, median over the k replicas). The end tables use
// plain LDPJoinSketch; each middle table a MatrixSketch. The left sketch
// must share its family with mids[0]'s A side, and so on down the chain;
// K must agree everywhere.
func ChainEstimate(left *Sketch, mids []*MatrixSketch, right *Sketch) float64 {
	k := left.params.K
	if right.params.K != k {
		panic("core: chain ends disagree on K")
	}
	maxM2 := 0
	for _, m := range mids {
		if m.params.K != k {
			panic("core: chain matrix disagrees on K")
		}
		if m.params.M2 > maxM2 {
			maxM2 = m.params.M2
		}
	}
	var buf [maxStackK]float64
	ests := estScratch(&buf, k)
	// Two ping-pong buffers sized to the widest intermediate carry the
	// vector down the chain, so the whole replica loop allocates twice
	// total instead of once per (replica, middle) step. Alternating
	// buffers keeps VecMatInto's no-alias contract: step i reads the
	// vector step i−1 wrote into the other buffer.
	var bufs [2][]float64
	bufs[0] = make([]float64, maxM2)
	bufs[1] = make([]float64, maxM2)
	for j := 0; j < k; j++ {
		v := left.Row(j)
		for i, m := range mids {
			dst := bufs[i%2][:m.params.M2]
			m.VecMatInto(j, v, dst)
			v = dst
		}
		ests = append(ests, kernel.Dot(v, right.Row(j)))
	}
	return kernel.MedianInPlace(ests)
}
