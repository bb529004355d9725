package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

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
	if !kernel.IsPowerOfTwo(p.M1) || !kernel.IsPowerOfTwo(p.M2) {
		return fmt.Errorf("core: matrix sketch dims must be powers of two, got %dx%d", p.M1, p.M2)
	}
	if uint64(p.M1)*uint64(p.M2) > 1<<32 {
		return fmt.Errorf("core: a %dx%d matrix has more cells than a uint32 cell index can name", p.M1, p.M2)
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
	w := kernel.Entry(famA.Bucket(j, a), l1) *
		famA.Sign(j, a) * famB.Sign(j, b) *
		kernel.Entry(l2, famB.Bucket(j, b))
	bit := ldp.SampleBit(rng, p.Epsilon)
	return MatrixReport{Y: bit * int8(w), Row: uint32(j), L1: uint32(l1), L2: uint32(l2)}
}

// MatrixEntry is one non-zero cell of a replica's report counts Y:
// Cell = l1·M2 + l2, and Count is the sum of the signs of the reports
// that sampled it.
type MatrixEntry struct {
	Cell  uint32
	Count int32
}

// minTail is the tail length below which a replica never compacts: a
// short tail costs less to keep than to merge.
const minTail = 1 << 12

// MatrixAggregator is the server side for a middle table. Each report
// adds its sign to one cell of one replica's count matrix Y_j, and the
// counts are the whole state: a chain estimate reads them in
// the report domain (see ChainEstimate), so nothing is ever restored out
// of the double Hadamard domain and the K·M1·M2 matrix is never built.
//
// The reports sample (l1, l2) uniformly, so n reports touch at most n
// cells. Replica j holds a sorted run of its non-zero cells plus an
// unsorted tail that AddBatch appends to; the tail is sorted and merged
// into the run when it outgrows the run, at Finalize, and whenever the
// runs are read. An entry is 8 bytes, the size of a dense float64 cell,
// so a column is never larger than the dense matrix would be except for
// its tail.
type MatrixAggregator struct {
	params MatrixParams
	famA   *hashing.Family
	famB   *hashing.Family
	runs   [][]MatrixEntry // per replica: cells strictly increasing, counts non-zero
	tails  [][]MatrixEntry // per replica: ±1 entries not yet merged into the run
	n      int64
	done   bool
}

// NewMatrixAggregator creates an empty aggregator. famA (the left join
// attribute) must have M = M1, famB M = M2, and both must have K replicas.
func NewMatrixAggregator(p MatrixParams, famA, famB *hashing.Family) *MatrixAggregator {
	p.mustValidate()
	if famA.K() != p.K || famB.K() != p.K || famA.M() != p.M1 || famB.M() != p.M2 {
		panic("core: matrix families do not match params")
	}
	return &MatrixAggregator{
		params: p,
		famA:   famA,
		famB:   famB,
		runs:   make([][]MatrixEntry, p.K),
		tails:  make([][]MatrixEntry, p.K),
	}
}

// Add ingests one tuple report. It panics on a report AddBatch would
// refuse.
func (ma *MatrixAggregator) Add(r MatrixReport) {
	if err := ma.AddBatch([]MatrixReport{r}); err != nil {
		panic(err)
	}
}

// AddBatch ingests a batch of wire-decoded tuple reports with the same
// skip-and-report bounds check, and the same branch-free treatment of
// the sign, as Aggregator.AddBatch. A batch that would take the
// aggregator past MaxReports is refused whole.
func (ma *MatrixAggregator) AddBatch(reports []MatrixReport) error {
	if ma.done {
		panic("core: MatrixAggregator.AddBatch after Finalize")
	}
	if err := room(ma.n, int64(len(reports))); err != nil {
		return err
	}
	p := ma.params
	m2 := uint32(p.M2)
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
		ma.tails[r.Row] = append(ma.tails[r.Row], MatrixEntry{Cell: r.L1*m2 + r.L2, Count: int32(r.Y)})
		if t := len(ma.tails[r.Row]); t > minTail && t > len(ma.runs[r.Row]) {
			ma.compact(int(r.Row))
		}
	}
	ma.n += int64(len(reports) - skipped)
	return err
}

// boundsError is the error of a report AddBatch skipped.
func (ma *MatrixAggregator) boundsError(r MatrixReport) error {
	p := ma.params
	return fmt.Errorf("core: matrix report (y=%d, row=%d, l1=%d, l2=%d) out of sketch bounds (%d, %d, %d)",
		r.Y, r.Row, r.L1, r.L2, p.K, p.M1, p.M2)
}

// compact sorts replica j's tail and merges it into the run.
func (ma *MatrixAggregator) compact(j int) {
	tail := ma.tails[j]
	if len(tail) == 0 {
		return
	}
	slices.SortFunc(tail, func(a, b MatrixEntry) int { return cmp.Compare(a.Cell, b.Cell) })
	ma.runs[j] = mergeRuns(ma.runs[j], tail)
	ma.tails[j] = tail[:0]
}

// compactAll compacts every replica, in parallel: each touches only its
// own run and tail.
func (ma *MatrixAggregator) compactAll() {
	kernel.RowApply(ma.params.K, ma.compact)
}

// mergeRuns returns a new canonical run — cells strictly increasing, no
// zero count — holding the cell-wise sum of a canonical run and a run
// sorted by cell that may repeat cells and hold any counts. The result
// is copied to its own size when merging left much of the worst-case
// capacity unused, so a run costs about 8 bytes per non-zero cell.
func mergeRuns(a, b []MatrixEntry) []MatrixEntry {
	out := make([]MatrixEntry, 0, len(a)+len(b))
	i, k := 0, 0
	for i < len(a) || k < len(b) {
		var e MatrixEntry
		if k == len(b) || (i < len(a) && a[i].Cell < b[k].Cell) {
			e, i = a[i], i+1
		} else {
			e, k = b[k], k+1
		}
		if last := len(out) - 1; last >= 0 && out[last].Cell == e.Cell {
			out[last].Count += e.Count
		} else {
			out = append(out, e)
		}
	}
	out = slices.DeleteFunc(out, func(e MatrixEntry) bool { return e.Count == 0 })
	if cap(out)-len(out) > len(out)/8 {
		out = append(make([]MatrixEntry, 0, len(out)), out...)
	}
	return out
}

// Merge folds other (not yet finalized, same parameters and families)
// into ma. It is exact: counts are integers, so merging is
// order-independent and loses nothing. The two must hold at most
// MaxReports reports together.
func (ma *MatrixAggregator) Merge(other *MatrixAggregator) {
	if ma.done || other.done {
		panic("core: MatrixAggregator.Merge after Finalize")
	}
	if !ma.Compatible(other) {
		panic("core: MatrixAggregator.Merge across params or hash families")
	}
	if err := room(ma.n, other.n); err != nil {
		panic(err)
	}
	ma.compactAll()
	other.compactAll()
	for j := range ma.runs {
		ma.runs[j] = mergeRuns(ma.runs[j], other.runs[j])
	}
	ma.n += other.n
}

// N returns the number of tuples ingested so far.
func (ma *MatrixAggregator) N() float64 { return float64(ma.n) }

// Params returns the matrix parameters the aggregator folds under.
func (ma *MatrixAggregator) Params() MatrixParams { return ma.params }

// FamilyA returns the hash family of the left join attribute.
func (ma *MatrixAggregator) FamilyA() *hashing.Family { return ma.famA }

// FamilyB returns the hash family of the right join attribute.
func (ma *MatrixAggregator) FamilyB() *hashing.Family { return ma.famB }

// Done reports whether the aggregator has been finalized.
func (ma *MatrixAggregator) Done() bool { return ma.done }

// Runs compacts every replica and returns the K canonical runs without
// copying. Like Aggregator.Rows it exists for the snapshot codec; the
// caller must not mutate them and must be quiescent while exporting.
func (ma *MatrixAggregator) Runs() [][]MatrixEntry {
	ma.compactAll()
	return ma.runs
}

// Compatible reports whether other accumulates under equal parameters
// and interchangeable attribute families — the precondition for Merge.
func (ma *MatrixAggregator) Compatible(other *MatrixAggregator) bool {
	return ma.params == other.params && sameFamily(ma.famA, other.famA) && sameFamily(ma.famB, other.famB)
}

// CheckMatrixRuns returns nil when (runs, n) is state some stream of n
// reports could have folded into under p: K replicas; in each, cells
// inside the matrix and strictly increasing, and no zero count; n a
// whole number of reports no larger than MaxReports; and the two rules
// every count state obeys (see countSums). Finalized and unfinalized
// state are both counts, so one check serves both.
func CheckMatrixRuns(p MatrixParams, runs [][]MatrixEntry, n float64) error {
	if err := checkReportCount(n); err != nil {
		return err
	}
	if len(runs) != p.K {
		return fmt.Errorf("core: %d replicas for a depth-%d matrix sketch", len(runs), p.K)
	}
	cells := uint64(p.M1) * uint64(p.M2)
	var sums countSums
	for j, run := range runs {
		for i, e := range run {
			if uint64(e.Cell) >= cells {
				return fmt.Errorf("core: replica %d entry %d: cell %d outside the %dx%d matrix", j, i, e.Cell, p.M1, p.M2)
			}
			if i > 0 && e.Cell <= run[i-1].Cell {
				return fmt.Errorf("core: replica %d entry %d: cell %d does not follow cell %d", j, i, e.Cell, run[i-1].Cell)
			}
			if e.Count == 0 {
				return fmt.Errorf("core: replica %d entry %d: zero count for cell %d", j, i, e.Cell)
			}
			if err := sums.add(e.Count, n); err != nil {
				return err
			}
		}
	}
	return sums.check(n)
}

// restoreMatrixState validates exported matrix state before either
// restore constructor will build an object from it.
func restoreMatrixState(p MatrixParams, famA, famB *hashing.Family, runs [][]MatrixEntry, n float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if famA == nil || famB == nil || famA.K() != p.K || famB.K() != p.K || famA.M() != p.M1 || famB.M() != p.M2 {
		return fmt.Errorf("core: matrix families do not match params (k=%d, m1=%d, m2=%d)", p.K, p.M1, p.M2)
	}
	return CheckMatrixRuns(p, runs, n)
}

// RestoreMatrixAggregator rebuilds an unfinalized matrix aggregator from
// exported state, taking ownership of runs.
func RestoreMatrixAggregator(p MatrixParams, famA, famB *hashing.Family, runs [][]MatrixEntry, n float64) (*MatrixAggregator, error) {
	if err := restoreMatrixState(p, famA, famB, runs, n); err != nil {
		return nil, err
	}
	return &MatrixAggregator{
		params: p,
		famA:   famA,
		famB:   famB,
		runs:   runs,
		tails:  make([][]MatrixEntry, p.K),
		n:      int64(n),
	}, nil
}

// RestoreMatrixSketch rebuilds a finalized matrix sketch from exported
// state, taking ownership of runs.
func RestoreMatrixSketch(p MatrixParams, famA, famB *hashing.Family, runs [][]MatrixEntry, n float64) (*MatrixSketch, error) {
	if err := restoreMatrixState(p, famA, famB, runs, n); err != nil {
		return nil, err
	}
	return newMatrixSketch(p, famA, famB, runs, int64(n)), nil
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

// Finalize compacts every replica and returns the matrix sketch. It
// transforms nothing: the sketch keeps the counts, and the estimators
// apply the debias scale and the Hadamard algebra themselves.
func (ma *MatrixAggregator) Finalize() *MatrixSketch {
	if ma.done {
		panic("core: MatrixAggregator.Finalize called twice")
	}
	ma.compactAll()
	ma.done = true
	ma.tails = nil
	return newMatrixSketch(ma.params, ma.famA, ma.famB, ma.runs, ma.n)
}

// MatrixSketch is the finalized two-attribute sketch. It holds each
// replica's report counts Y_j and the debias scale c = k·c_ε; the
// COMPASS counter matrix it stands for is M_j = c·H·Y_j·H (tuple (a,b)
// contributes ξ_A(a)ξ_B(b) at [h_A(a), h_B(b)] in expectation), which
// the estimators never build.
type MatrixSketch struct {
	params MatrixParams
	famA   *hashing.Family
	famB   *hashing.Family
	runs   [][]MatrixEntry
	n      int64
	scale  float64
	shift  uint32 // log2(M2): a cell's row is cell >> shift
}

func newMatrixSketch(p MatrixParams, famA, famB *hashing.Family, runs [][]MatrixEntry, n int64) *MatrixSketch {
	return &MatrixSketch{
		params: p,
		famA:   famA,
		famB:   famB,
		runs:   runs,
		n:      n,
		scale:  float64(p.K) * ldp.CEpsilon(p.Epsilon),
		shift:  uint32(bits.TrailingZeros(uint(p.M2))),
	}
}

// K returns the number of replicas.
func (ms *MatrixSketch) K() int { return ms.params.K }

// N returns the number of tuples summarized.
func (ms *MatrixSketch) N() float64 { return float64(ms.n) }

// Params returns the matrix parameters the sketch was built with.
func (ms *MatrixSketch) Params() MatrixParams { return ms.params }

// FamilyA returns the hash family of the left join attribute.
func (ms *MatrixSketch) FamilyA() *hashing.Family { return ms.famA }

// FamilyB returns the hash family of the right join attribute.
func (ms *MatrixSketch) FamilyB() *hashing.Family { return ms.famB }

// Runs returns the K canonical count runs (not a copy).
func (ms *MatrixSketch) Runs() [][]MatrixEntry { return ms.runs }

// Compatible reports whether the two sketches can be combined: equal
// parameters and interchangeable attribute families.
func (ms *MatrixSketch) Compatible(other *MatrixSketch) bool {
	return ms.params == other.params && sameFamily(ms.famA, other.famA) && sameFamily(ms.famB, other.famB)
}

// Merge adds other's counts into ms. Finalized state is counts, so this
// is the same integer merge as MatrixAggregator.Merge, and the result is
// identical to merging before finalization. The sketches must be
// Compatible and hold at most MaxReports reports together.
func (ms *MatrixSketch) Merge(other *MatrixSketch) {
	if !ms.Compatible(other) {
		panic("core: MatrixSketch.Merge of incompatible sketches")
	}
	if err := room(ms.n, other.n); err != nil {
		panic(err)
	}
	for j := range ms.runs {
		ms.runs[j] = mergeRuns(ms.runs[j], other.runs[j])
	}
	ms.n += other.n
}

// vecCounts computes out = v × Y_j, the vector–matrix product over
// replica j's counts: out[l2] = Σ_{l1} v[l1]·Y_j[l1, l2]. It costs
// O(nnz), whatever the matrix's size. v has M1 entries and out M2.
func (ms *MatrixSketch) vecCounts(j int, v, out []float64) {
	clear(out)
	shift, mask := ms.shift, uint32(ms.params.M2-1)
	for _, e := range ms.runs[j] {
		out[e.Cell&mask] += v[e.Cell>>shift] * float64(e.Count)
	}
}

// ChainEstimate estimates the size of the chain join
// left(A0) ⋈ mids[0](A0,A1) ⋈ ... ⋈ right(A_n) from LDP sketches (Eq 27
// generalized to a chain, median over the k replicas). The end tables use
// plain LDPJoinSketch; each middle table a MatrixSketch. The left sketch
// must share its family with mids[0]'s A side, and so on down the chain;
// K must agree everywhere, and the dimensions must compose.
//
// Replica j's estimate is s_L·M_1·…·M_r·s_R with each M_i = c_i·H·Y_i·H
// and each end row s = c·H·a over its counts a. H is symmetric and
// H·H = m·I, so every H·H on the chain — end to middle, and middle to
// middle — is a scalar, and the estimate is F·a_L·Y_1⋯Y_r·a_R, where F
// is c_L·c_R·c_1⋯c_r times every dimension two neighbours share: one
// O(nnz) vector–count product per middle, and no transform while the
// ends hold their counts (an end a join or frequency query restored
// gives its counts back through one FWHT per row; see Sketch).
func ChainEstimate(left *Sketch, mids []*MatrixSketch, right *Sketch) float64 {
	k := left.params.K
	if right.params.K != k {
		panic("core: chain ends disagree on K")
	}
	if len(mids) == 0 {
		panic("core: a chain needs at least one middle table")
	}
	dim, widest := left.params.M, left.params.M
	factor := left.scale * right.scale * float64(dim)
	for _, m := range mids {
		if m.params.K != k {
			panic("core: chain matrix disagrees on K")
		}
		if m.params.M1 != dim {
			panic("core: chain dimensions do not compose")
		}
		dim = m.params.M2
		widest = max(widest, dim)
		factor *= m.scale * float64(dim)
	}
	if right.params.M != dim {
		panic("core: chain dimensions do not compose")
	}
	var buf [maxStackK]float64
	ests := estScratch(&buf, k)
	// One scratch for the whole replica loop: two ping-pong vectors wide
	// enough for every step, and the right end's counts.
	scratch := make([]float64, 2*widest+dim)
	for j := 0; j < k; j++ {
		ests = append(ests, factor*chainReplica(left, mids, j, right, scratch))
	}
	return kernel.MedianInPlace(ests)
}

// chainReplica is replica j's bilinear form a_L·Y_1⋯Y_r·a_R over the
// counts (see ChainEstimate), unscaled, over the caller's scratch.
// Alternating the two vectors keeps vecCounts' input and output apart.
func chainReplica(left *Sketch, mids []*MatrixSketch, j int, right *Sketch, scratch []float64) float64 {
	w := scratch[len(scratch)-right.params.M:]
	widest := (len(scratch) - len(w)) / 2
	bufs := [2][]float64{scratch[:widest], scratch[widest : 2*widest]}
	v := bufs[0][:left.params.M]
	left.countsInto(j, v)
	for i, m := range mids {
		out := bufs[(i+1)%2][:m.params.M2]
		m.vecCounts(j, v, out)
		v = out
	}
	right.countsInto(j, w)
	return kernel.Dot(v, w)
}
