package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/ldp"
)

// maxStackK is the widest row-estimate vector the query methods keep on
// the stack. The daemon's default and the paper's main configuration run
// at K = 18, so served joins, point lookups, chain replicas and the FI
// scan are allocation-free; deeper sketches (the Fig 9 depth sweep
// reaches 36) fall back to one heap scratch per call.
const maxStackK = 32

// MaxReports is the most reports one aggregator or sketch of any kind
// holds: a count is an int32, and no count exceeds n in magnitude, so up
// to here every count is exact.
const MaxReports = math.MaxInt32

// room returns nil when more reports fit beside the n already held.
func room(n, more int64) error {
	if more > MaxReports-n {
		return fmt.Errorf("core: %d more reports would take state holding %d past its %d-report limit", more, n, MaxReports)
	}
	return nil
}

// Aggregator is the server side of LDPJoinSketch construction (Algorithm
// 2, PriSk): each report adds its perturbed bit, ±1, to the count at its
// sampled coordinates. The counts are the whole state, and Finalize
// hands them to the sketch as they are: the k·c_ε debias scale and the
// Hadamard restore that Algorithm 2 applies are linear, so the sketch
// applies them only when a query first needs the restored rows (see
// Sketch), and a chain never does. Counts are integers, so merging
// partial aggregators is exact and
// order-independent; aggregators over the same family may be merged
// before finalization, which is what the parallel builder exploits.
type Aggregator struct {
	params Params
	fam    *hashing.Family
	rows   [][]int32
	n      int64
	done   bool
}

// NewAggregator creates an empty aggregator. The family must match the
// parameters (same K and M).
func NewAggregator(p Params, fam *hashing.Family) *Aggregator {
	p.mustValidate()
	if fam.K() != p.K || fam.M() != p.M {
		panic("core: hash family does not match params")
	}
	cells := make([]int32, p.K*p.M)
	rows := make([][]int32, p.K)
	for j := range rows {
		rows[j] = cells[j*p.M : (j+1)*p.M : (j+1)*p.M]
	}
	return &Aggregator{params: p, fam: fam, rows: rows}
}

// Add ingests one perturbed report (Algorithm 2, line 4; the constant
// debias scale is the estimators' to apply). It panics past MaxReports.
func (a *Aggregator) Add(r Report) {
	if a.done {
		panic("core: Aggregator.Add after Finalize")
	}
	if err := room(a.n, 1); err != nil {
		panic(err)
	}
	a.rows[r.Row][r.Col] += int32(r.Y)
	a.n++
}

// AddBatch ingests a batch of wire-decoded reports, bounds-checking each
// one: a report outside the sketch (or with a sign other than ±1) is
// skipped, and the first such report comes back as the error. A batch
// that would take the aggregator past MaxReports is refused whole. It is
// the ingest column's fold loop — one call per batch, so the per-report
// work stays a concrete loop over the aggregator's own rows.
//
// Y is a fair coin by construction, so the loop never branches on it:
// y+1 is 0 or 2 exactly when y is ±1, which folds the sign into the
// never-taken validity test, and the cell update is y itself.
func (a *Aggregator) AddBatch(reports []Report) error {
	if a.done {
		panic("core: Aggregator.AddBatch after Finalize")
	}
	if err := room(a.n, int64(len(reports))); err != nil {
		return err
	}
	k, m := a.params.K, a.params.M
	var err error
	skipped := 0
	for _, r := range reports {
		if int(r.Row) >= k || int(r.Col) >= m || uint8(r.Y+1)&^2 != 0 {
			if err == nil {
				err = a.boundsError(r)
			}
			skipped++
			continue
		}
		a.rows[r.Row][r.Col] += int32(r.Y)
	}
	a.n += int64(len(reports) - skipped)
	return err
}

// boundsError is the error of a report AddBatch skipped.
func (a *Aggregator) boundsError(r Report) error {
	return fmt.Errorf("core: report (y=%d, row=%d, col=%d) out of sketch bounds (%d, %d)",
		r.Y, r.Row, r.Col, a.params.K, a.params.M)
}

// CollectColumn simulates the full protocol for a column of private
// values: each value is perturbed client-side and the report ingested.
func (a *Aggregator) CollectColumn(data []uint64, rng *rand.Rand) {
	for _, d := range data {
		a.Add(Perturb(d, a.params, a.fam, rng))
	}
}

// Merge folds other (not yet finalized, same family) into a. The two
// must hold at most MaxReports reports together.
func (a *Aggregator) Merge(other *Aggregator) {
	if a.done || other.done {
		panic("core: Merge after Finalize")
	}
	if !sameFamily(a.fam, other.fam) {
		panic("core: Merge across hash families")
	}
	if err := room(a.n, other.n); err != nil {
		panic(err)
	}
	addCounts(a.rows, other.rows)
	a.n += other.n
}

// addCounts adds src's counts into dst, row by row.
func addCounts(dst, src [][]int32) {
	for j, row := range dst {
		for x, c := range src[j] {
			row[x] += c
		}
	}
}

// N returns the number of reports ingested so far.
func (a *Aggregator) N() float64 { return float64(a.n) }

// Params returns the protocol parameters the aggregator folds under.
func (a *Aggregator) Params() Params { return a.params }

// Family returns the hash family shared with the clients.
func (a *Aggregator) Family() *hashing.Family { return a.fam }

// Done reports whether the aggregator has been finalized (and therefore
// cannot ingest, merge, or export snapshots anymore).
func (a *Aggregator) Done() bool { return a.done }

// Rows returns the K rows of M report counts without copying. The
// snapshot codec reads them directly, which is what lets an exporter
// drain an aggregator into a snapshot with no intermediate copy. The
// caller must not mutate the rows and must not export while another
// goroutine is still folding into the aggregator.
func (a *Aggregator) Rows() [][]int32 { return a.rows }

// Compatible reports whether other accumulates under equal parameters
// and an interchangeable hash family — the precondition for Merge.
func (a *Aggregator) Compatible(other *Aggregator) bool {
	return a.params == other.params && sameFamily(a.fam, other.fam)
}

// Finalize ends ingestion and returns the sketch, which takes over the
// counts as they are: finalization transforms nothing (see Sketch). The
// aggregator cannot be used afterwards.
func (a *Aggregator) Finalize() *Sketch {
	if a.done {
		panic("core: Finalize called twice")
	}
	a.done = true
	return newSketch(a.params, a.fam, a.rows, a.n)
}

// sameFamily reports whether two hash families are interchangeable:
// either the same object or derived from the same (seed, k, m), which by
// construction yields identical hash functions. Serialization relies on
// this: an unmarshaled sketch carries a reconstructed family.
func sameFamily(a, b *hashing.Family) bool {
	return a == b || (a.Seed() == b.Seed() && a.K() == b.K() && a.M() == b.M())
}

// Sketch is a finalized LDPJoinSketch. It holds the report counts a of
// each row and the debias scale c = k·c_ε; the sketch row Algorithm 2
// restores is s = c·H·a, and in expectation cell [j, h_j(d)] of it holds
// Σ_{d(i)=d} ξ_j(d) plus uniform cross-talk (Theorem 2), exactly as in a
// fast-AGMS sketch, which is why fast-AGMS estimators apply unchanged.
//
// The counts are the canonical state: snapshots, merges and chains (see
// ChainEstimate) read counts and nothing else. The pair and frequency
// estimators read s, which the sketch restores on first use. A join
// could dot the counts instead — H·H = m·I makes
// s_A·s_B = c_A·c_B·m·(a·b) — but at M = 1024 Go's int64 dot of int32
// rows measured 1.6× slower than its float dot (the integer multiply is
// the bottleneck; neither is vectorised), and a served column is joined
// many times for each restore.
//
// Once restored, the sketch keeps s and drops the counts, so a sketch
// that is only joined or probed costs 8 bytes a cell, as a float sketch
// would, and an unqueried one 4. The counts stay exact all the same:
// H·s = c·m·a, and the float error of the two transforms is far below ½
// for any count an int32 holds, so rounding H·s/(c·m) gives back a,
// integer for integer. Counts derives them that way on the first call
// that needs them — a chain end, a snapshot, a merge — and keeps them,
// so such a sketch holds both, 12 bytes a cell, until a Merge, and every
// later chain reads its counts with no transform. On bench/'s
// query-scan that reads peak_rss_mb 2–3 % over dropping the counts for
// good; keeping them on every restored sketch instead read 27 % over,
// and deriving them on every read made the transform most of a served
// chain.
type Sketch struct {
	params Params
	fam    *hashing.Family
	n      int64
	scale  float64 // k·c_ε, the debias factor of Algorithm 2

	// At least one of counts and restored is set: counts until the
	// first restore, restored from then on, and both once Counts has
	// derived the counts back; a Merge leaves counts alone again.
	// restore, Counts and Merge set them under mu, each only once it is
	// complete; readers load them without it.
	mu       sync.Mutex
	counts   atomic.Pointer[[][]int32]
	restored atomic.Pointer[[][]float64] // c·H·a per row
}

func newSketch(p Params, fam *hashing.Family, rows [][]int32, n int64) *Sketch {
	s := &Sketch{
		params: p,
		fam:    fam,
		n:      n,
		scale:  float64(p.K) * ldp.CEpsilon(p.Epsilon),
	}
	s.counts.Store(&rows)
	return s
}

// Params returns the protocol parameters the sketch was built with.
func (s *Sketch) Params() Params { return s.params }

// Family returns the hash family the sketch was built with.
func (s *Sketch) Family() *hashing.Family { return s.fam }

// N returns the number of reports summarized.
func (s *Sketch) N() float64 { return float64(s.n) }

// Counts returns the K rows of report counts, not a copy: the caller
// must not mutate them. A sketch a query restored has dropped its
// counts; the first call after that derives them back out of the
// restored rows, once for every caller, and keeps them (see Sketch).
// Each row is copied, transformed and rounded, H·s_j = c·m·a_j, the K
// rows in parallel as restore runs them, so a chain end, a snapshot or
// a merge pays the transform once, not on every read.
func (s *Sketch) Counts() [][]int32 {
	if c := s.counts.Load(); c != nil {
		return *c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.counts.Load(); c != nil {
		return *c
	}
	cells, m := *s.restored.Load(), s.params.M
	inv := 1 / (s.scale * float64(m))
	flat := make([]int32, len(cells)*m)
	rows := make([][]int32, len(cells))
	kernel.RowApply(len(rows), func(j int) {
		v := slices.Clone(cells[j])
		kernel.FWHT(v)
		row := flat[j*m : (j+1)*m : (j+1)*m]
		for x, c := range v {
			row[x] = int32(c*inv + roundMagic - roundMagic)
		}
		rows[j] = row
	})
	s.counts.Store(&rows)
	return rows
}

// roundMagic rounds by addition: x + 1.5·2⁵² has a unit last place, so
// adding it and taking it away again rounds any |x| < 2⁵¹ to the nearest
// integer, branch-free and without a division.
const roundMagic = 0x1.8p52

// Row returns restored row j, c·H·a_j (not a copy; the caller must not
// mutate it).
func (s *Sketch) Row(j int) []float64 { return s.cells()[j] }

// cells returns the restored rows, deriving them on first use.
func (s *Sketch) cells() [][]float64 {
	if c := s.restored.Load(); c != nil {
		return *c
	}
	return s.restore()
}

// restore derives the restored rows — Algorithm 2's debias scale and
// row-wise Walsh–Hadamard transform (line 6: M ← M × H_m^T, H
// symmetric) over a float copy of the counts — once, for every caller,
// and drops the counts (see Sketch). The K rows are independent, so they
// restore in parallel across GOMAXPROCS; each runs the fused
// scale+radix-4 transform, which is bit-exact with scaling then the
// radix-2 butterfly, so the worker count does not show in any estimate
// read off them.
func (s *Sketch) restore() [][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.restored.Load(); c != nil {
		return *c
	}
	counts := *s.counts.Load()
	cells := make([][]float64, len(counts))
	kernel.RowApply(len(cells), func(j int) {
		row := make([]float64, len(counts[j]))
		for x, c := range counts[j] {
			row[x] = float64(c)
		}
		kernel.FWHTScaled(row, s.scale)
		cells[j] = row
	})
	s.restored.Store(&cells)
	s.counts.Store(nil)
	return cells
}

// Compatible reports whether the two sketches can be combined: equal
// parameters and interchangeable hash families.
func (s *Sketch) Compatible(other *Sketch) bool {
	return s.params == other.params && sameFamily(s.fam, other.fam)
}

// Merge adds other's counts into s. A sketch is its counts, so this is
// the same integer merge as Aggregator.Merge, and the result is
// identical to merging before finalization. Merge mutates s; it must not
// race the (otherwise read-only) query methods. The sketches must be
// Compatible and hold at most MaxReports reports together.
func (s *Sketch) Merge(other *Sketch) {
	if !s.Compatible(other) {
		panic("core: Sketch.Merge of incompatible sketches")
	}
	if err := room(s.n, other.n); err != nil {
		panic(err)
	}
	// Both sides' counts first, since deriving them takes mu; then the
	// sum under mu, so a restore never reads counts mid-merge. The merged
	// sketch holds counts alone again, and restores on its next query.
	rows, add := s.Counts(), other.Counts()
	s.mu.Lock()
	defer s.mu.Unlock()
	addCounts(rows, add)
	s.n += other.n
	s.counts.Store(&rows)
	s.restored.Store(nil)
}

// estScratch returns a row-estimate buffer of capacity K: the caller's
// stack array when it is wide enough, one heap slice otherwise. Query
// methods pass their own stack array so the common K ≤ maxStackK case
// allocates nothing.
func estScratch(buf *[maxStackK]float64, k int) []float64 {
	if k <= maxStackK {
		return buf[:0]
	}
	return make([]float64, 0, k)
}

// JoinSize estimates |A ⋈ B| between the populations behind s and other
// (Eq 5): the median over rows of the restored row inner products
// s_A·s_B. Both sketches must share the hash family.
func (s *Sketch) JoinSize(other *Sketch) float64 {
	if !sameFamily(s.fam, other.fam) {
		panic("core: JoinSize across hash families")
	}
	a, b := s.cells(), other.cells()
	var buf [maxStackK]float64
	ests := estScratch(&buf, s.params.K)
	for j := range a {
		ests = append(ests, kernel.Dot(a[j], b[j]))
	}
	return kernel.MedianInPlace(ests)
}

// JoinSizeShifted estimates |A ⋈ B| with a constant subtracted from
// every restored cell of each side first: the median over rows of
// Σ_x (s_A[x]−ca)·(s_B[x]−cb) — Algorithm 5's removal of the uniform
// |NT|/m non-target contribution (Theorem 8). The offsets fold into the
// dot-product inner loop, so neither sketch is copied.
func (s *Sketch) JoinSizeShifted(other *Sketch, ca, cb float64) float64 {
	if !sameFamily(s.fam, other.fam) {
		panic("core: JoinSizeShifted across hash families")
	}
	a, b := s.cells(), other.cells()
	var buf [maxStackK]float64
	ests := estScratch(&buf, s.params.K)
	for j := range a {
		ests = append(ests, kernel.DotShifted(a[j], b[j], ca, cb))
	}
	return kernel.MedianInPlace(ests)
}

// JoinSizeMean is the ablation variant of JoinSize that averages the row
// estimators instead of taking their median. The mean has the same
// expectation but no resistance to collision spikes; the ablation bench
// quantifies the difference.
func (s *Sketch) JoinSizeMean(other *Sketch) float64 {
	if !sameFamily(s.fam, other.fam) {
		panic("core: JoinSizeMean across hash families")
	}
	a, b := s.cells(), other.cells()
	var buf [maxStackK]float64
	ests := estScratch(&buf, s.params.K)
	for j := range a {
		ests = append(ests, kernel.Dot(a[j], b[j]))
	}
	return kernel.Mean(ests)
}

// SelfJoinSize estimates the second frequency moment F2 = Σ_d f(d)² of
// the population behind the sketch. The naive self product is inflated by
// the protocol's own noise energy: each report contributes (k·c_ε)² at
// one sampled coordinate, which the restoring transform spreads across
// all m cells of its row, adding m·k·c_ε² per report in expectation
// (verified empirically across (k, m, ε) in the tests; the cross-product
// JoinSize needs no such correction because the two sketches' noises are
// independent and zero-mean). The bias n·(m·k·c_ε²−1) is subtracted
// before the row median.
func (s *Sketch) SelfJoinSize() float64 {
	ceps := ldp.CEpsilon(s.params.Epsilon)
	bias := (float64(s.params.M)*float64(s.params.K)*ceps*ceps - 1) * float64(s.n)
	var buf [maxStackK]float64
	ests := estScratch(&buf, s.params.K)
	for _, row := range s.cells() {
		ests = append(ests, kernel.Dot(row, row)-bias)
	}
	return kernel.MedianInPlace(ests)
}

// Frequency estimates f(d) as mean_j M[j, h_j(d)]·ξ_j(d) (Theorem 7). The
// estimate is unbiased, but its error is heavy-tailed: a collision with a
// heavy item in a single row shifts the mean by f_heavy/k. Use
// FrequencyMedian when robustness matters more than unbiasedness.
func (s *Sketch) Frequency(d uint64) float64 {
	var buf [maxStackK]float64
	return kernel.Mean(s.frequencyRows(d, estScratch(&buf, s.params.K)))
}

// FrequencyMedian estimates f(d) as median_j M[j, h_j(d)]·ξ_j(d) — the
// standard fast-AGMS/CountSketch estimator. Unlike the Theorem 7 mean it
// shrugs off single-row heavy-item collisions, which is essential when
// thresholding estimates over a large domain (phase 1 of LDPJoinSketch+):
// thresholding the mean harvests exactly the values whose estimate was
// inflated by a collision spike and floods FI with false positives.
func (s *Sketch) FrequencyMedian(d uint64) float64 {
	var buf [maxStackK]float64
	return kernel.MedianInPlace(s.frequencyRows(d, estScratch(&buf, s.params.K)))
}

// FrequencyMeanMedian returns Frequency(d) and FrequencyMedian(d), bit
// for bit, from one pass over the rows: the mean is taken before the
// median reorders the row estimates.
func (s *Sketch) FrequencyMeanMedian(d uint64) (mean, median float64) {
	var buf [maxStackK]float64
	ests := s.frequencyRows(d, estScratch(&buf, s.params.K))
	mean = kernel.Mean(ests)
	return mean, kernel.MedianInPlace(ests)
}

// frequencyRows writes the K row estimates of f(d), M[j, h_j(d)]·ξ_j(d)
// in row order, over ests (capacity ≥ K, contents irrelevant) — the one
// pass every frequency estimator reads, and the allocation-free inner
// call of the FI scan, whose workers each carry one scratch.
func (s *Sketch) frequencyRows(d uint64, ests []float64) []float64 {
	ests = ests[:0]
	for j, row := range s.cells() {
		ests = append(ests, row[s.fam.Bucket(j, d)]*float64(s.fam.Sign(j, d)))
	}
	return ests
}

// frequentItemsSpan is the smallest domain span the FI scan hands one
// worker: below this the per-goroutine overhead beats the K hash
// evaluations per value being spread out.
const frequentItemsSpan = 4096

// FrequentItems scans [0, domain) and returns the values whose estimated
// frequency exceeds threshold — the server side of LDPJoinSketch+ phase 1.
// useMean selects the Theorem 7 mean estimator (the paper's literal
// reading); the default median is the robust choice (see FrequencyMedian).
//
// The scan is O(domain·K) hash evaluations with no cross-value state, so
// it shards the domain into contiguous spans scanned in parallel across
// GOMAXPROCS, each worker carrying its own estimate scratch. Every value
// is judged independently by the same threshold and the spans
// concatenate in order, so the result — sorted strictly ascending, the
// canonical FI form — is identical to the serial scan no matter the
// worker count (the determinism the WAL-replayed advance proposal
// requires).
func (s *Sketch) FrequentItems(domain uint64, threshold float64, useMean bool) []uint64 {
	s.cells() // restore once, before the workers read the cells
	shards := runtime.GOMAXPROCS(0) * 4
	if max := int(domain / frequentItemsSpan); shards > max {
		shards = max
	}
	if shards <= 1 {
		return s.frequentItemsRange(0, domain, threshold, useMean)
	}
	span := domain / uint64(shards)
	outs := make([][]uint64, shards)
	kernel.RowApply(shards, func(w int) {
		lo := uint64(w) * span
		hi := lo + span
		if w == shards-1 {
			hi = domain
		}
		outs[w] = s.frequentItemsRange(lo, hi, threshold, useMean)
	})
	var total int
	for _, part := range outs {
		total += len(part)
	}
	out := make([]uint64, 0, total)
	for _, part := range outs {
		out = append(out, part...)
	}
	return out
}

// frequentItemsRange is the serial FI scan over [lo, hi), reusing one
// estimate scratch across the whole span.
func (s *Sketch) frequentItemsRange(lo, hi uint64, threshold float64, useMean bool) []uint64 {
	var out []uint64
	var buf [maxStackK]float64
	ests := estScratch(&buf, s.params.K)[:0]
	for d := lo; d < hi; d++ {
		ests = s.frequencyRows(d, ests)
		var f float64
		if useMean {
			f = kernel.Mean(ests)
		} else {
			f = kernel.MedianInPlace(ests)
		}
		if f > threshold {
			out = append(out, d)
		}
	}
	return out
}
