package core

import (
	"fmt"
	"math/rand"
	"runtime"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/ldp"
)

// maxStackK is the widest row-estimate vector the query methods keep on
// the stack. Deployed sketch depths are single to low double digits
// (the paper's configurations top out well under 16), so point lookups
// and the FI scan are allocation-free in practice; deeper sketches fall
// back to one heap scratch per call.
const maxStackK = 16

// Aggregator is the server side of LDPJoinSketch construction (Algorithm
// 2, PriSk): it accumulates the perturbed coefficients at the sampled
// coordinates of each report and, once all reports are in, applies the
// k·c_ε debias scale and restores the sketch out of the Hadamard domain.
// Deferring the constant scale from Add (where Algorithm 2 writes it) to
// Finalize is algebraically identical — the sketch is linear — and keeps
// cell contents integral, so merging partial aggregators is exact and
// order-independent. Aggregators over the same family may be merged before
// finalization, which is what the parallel builder exploits.
type Aggregator struct {
	params Params
	fam    *hashing.Family
	scale  float64 // k·c_ε, the debias factor of Algorithm 2
	rows   [][]float64
	n      float64
	done   bool
}

// NewAggregator creates an empty aggregator. The family must match the
// parameters (same K and M).
func NewAggregator(p Params, fam *hashing.Family) *Aggregator {
	p.mustValidate()
	if fam.K() != p.K || fam.M() != p.M {
		panic("core: hash family does not match params")
	}
	rows := make([][]float64, p.K)
	for j := range rows {
		rows[j] = make([]float64, p.M)
	}
	return &Aggregator{
		params: p,
		fam:    fam,
		scale:  float64(p.K) * ldp.CEpsilon(p.Epsilon),
		rows:   rows,
	}
}

// Add ingests one perturbed report (Algorithm 2, line 4; the constant
// debias scale is applied at Finalize).
func (a *Aggregator) Add(r Report) {
	if a.done {
		panic("core: Aggregator.Add after Finalize")
	}
	a.rows[r.Row][r.Col] += float64(r.Y)
	a.n++
}

// AddBatch ingests a batch of wire-decoded reports, bounds-checking each
// one: a report outside the sketch (or with a sign other than ±1) is
// skipped, and the first such report comes back as the error. It is the
// ingest column's fold loop — one call per batch, so the per-report work
// stays a concrete loop over the aggregator's own rows.
//
// Y is a fair coin by construction, so the loop never branches on it:
// y+1 is 0 or 2 exactly when y is ±1, which folds the sign into the
// never-taken validity test, and the cell update is float64(y) itself.
//
//ldpjoin:hotpath
func (a *Aggregator) AddBatch(reports []Report) error {
	if a.done {
		panic("core: Aggregator.AddBatch after Finalize")
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
		a.rows[r.Row][r.Col] += float64(r.Y)
	}
	a.n += float64(len(reports) - skipped)
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

// Merge folds other (not yet finalized, same family) into a.
func (a *Aggregator) Merge(other *Aggregator) {
	if a.done || other.done {
		panic("core: Merge after Finalize")
	}
	if !sameFamily(a.fam, other.fam) {
		panic("core: Merge across hash families")
	}
	for j := range a.rows {
		for x, v := range other.rows[j] {
			a.rows[j][x] += v
		}
	}
	a.n += other.n
}

// N returns the number of reports ingested so far.
func (a *Aggregator) N() float64 { return a.n }

// Params returns the protocol parameters the aggregator folds under.
func (a *Aggregator) Params() Params { return a.params }

// Family returns the hash family shared with the clients.
func (a *Aggregator) Family() *hashing.Family { return a.fam }

// Done reports whether the aggregator has been finalized (and therefore
// cannot ingest, merge, or export snapshots anymore).
func (a *Aggregator) Done() bool { return a.done }

// Rows returns the raw unfinalized accumulation state — K rows of M
// cells, each an exact integer sum of perturbed bits — without copying.
// The snapshot codec reads it directly, which is what lets an exporter
// drain an aggregator into a snapshot with no intermediate copy. The
// caller must not mutate the rows and must not export while another
// goroutine is still folding into the aggregator.
func (a *Aggregator) Rows() [][]float64 { return a.rows }

// Compatible reports whether other accumulates under equal parameters
// and an interchangeable hash family — the precondition for Merge.
func (a *Aggregator) Compatible(other *Aggregator) bool {
	return a.params == other.params && sameFamily(a.fam, other.fam)
}

// Finalize applies the k·c_ε debias scale (Algorithm 2, line 4) and
// restores the sketch (line 6: M ← M × H_m^T; with H symmetric this is a
// row-wise Walsh–Hadamard transform). The aggregator cannot be used
// afterwards.
//
// The K rows are independent, so they restore in parallel across
// GOMAXPROCS; each row runs the fused scale+radix-4 transform, which is
// bit-exact with scaling then hadamard.Transform — finalized state is
// persisted and federated byte-identically, so the worker count and the
// kernel rewrite must not (and do not) show up in the output.
func (a *Aggregator) Finalize() *Sketch {
	if a.done {
		panic("core: Finalize called twice")
	}
	a.done = true
	rows, scale := a.rows, a.scale
	kernel.RowApply(len(rows), func(j int) {
		kernel.FWHTScaled(rows[j], scale)
	})
	return &Sketch{params: a.params, fam: a.fam, rows: a.rows, n: a.n}
}

// sameFamily reports whether two hash families are interchangeable:
// either the same object or derived from the same (seed, k, m), which by
// construction yields identical hash functions. Serialization relies on
// this: an unmarshaled sketch carries a reconstructed family.
func sameFamily(a, b *hashing.Family) bool {
	return a == b || (a.Seed() == b.Seed() && a.K() == b.K() && a.M() == b.M())
}

// Sketch is a finalized LDPJoinSketch: in expectation cell [j, h_j(d)]
// holds Σ_{d(i)=d} ξ_j(d) plus uniform cross-talk (Theorem 2), exactly as
// in a fast-AGMS sketch, which is why fast-AGMS estimators apply
// unchanged.
type Sketch struct {
	params Params
	fam    *hashing.Family
	rows   [][]float64
	n      float64
}

// Params returns the protocol parameters the sketch was built with.
func (s *Sketch) Params() Params { return s.params }

// Family returns the hash family the sketch was built with.
func (s *Sketch) Family() *hashing.Family { return s.fam }

// N returns the number of reports summarized.
func (s *Sketch) N() float64 { return s.n }

// Row returns row j (not a copy).
func (s *Sketch) Row(j int) []float64 { return s.rows[j] }

// Compatible reports whether the two sketches can be combined: equal
// parameters and interchangeable hash families.
func (s *Sketch) Compatible(other *Sketch) bool {
	return s.params == other.params && sameFamily(s.fam, other.fam)
}

// Merge adds other into s cell-wise. Finalization is linear (a constant
// scale followed by the Walsh–Hadamard transform), so the sum of two
// finalized sketches summarizes the union of the two populations and
// every estimator stays unbiased. Floating-point addition is not
// associative, however, so the result is not guaranteed bit-identical
// to finalizing the merged unfinalized state: federation paths that
// need byte-exact results must merge unfinalized snapshots instead.
// Merge mutates s; it must not race the (otherwise read-only) query
// methods. The sketches must be Compatible.
func (s *Sketch) Merge(other *Sketch) {
	if !s.Compatible(other) {
		panic("core: Sketch.Merge of incompatible sketches")
	}
	for j := range s.rows {
		for x, v := range other.rows[j] {
			s.rows[j][x] += v
		}
	}
	s.n += other.n
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
// (Eq 5): the median over rows of the row inner products. Both sketches
// must share the hash family.
//
//ldpjoin:hotpath
func (s *Sketch) JoinSize(other *Sketch) float64 {
	if !sameFamily(s.fam, other.fam) {
		panic("core: JoinSize across hash families")
	}
	var buf [maxStackK]float64
	ests := estScratch(&buf, s.params.K)
	for j := range s.rows {
		ests = append(ests, kernel.Dot(s.rows[j], other.rows[j]))
	}
	return kernel.MedianInPlace(ests)
}

// JoinSizeShifted estimates |A ⋈ B| with a constant subtracted from
// every cell of each side first: the median over rows of
// Σ_x (s[j,x]−ca)·(other[j,x]−cb). It equals
// MinusConstant(ca).JoinSize(other.MinusConstant(cb)) — Algorithm 5's
// removal of the uniform |NT|/m non-target contribution (Theorem 8) —
// without copying either sketch; the offsets fold into the dot-product
// inner loop instead.
//
//ldpjoin:hotpath
func (s *Sketch) JoinSizeShifted(other *Sketch, ca, cb float64) float64 {
	if !sameFamily(s.fam, other.fam) {
		panic("core: JoinSizeShifted across hash families")
	}
	var buf [maxStackK]float64
	ests := estScratch(&buf, s.params.K)
	for j := range s.rows {
		ests = append(ests, kernel.DotShifted(s.rows[j], other.rows[j], ca, cb))
	}
	return kernel.MedianInPlace(ests)
}

// JoinSizeMean is the ablation variant of JoinSize that averages the row
// estimators instead of taking their median. The mean has the same
// expectation but no resistance to collision spikes; the ablation bench
// quantifies the difference.
//
//ldpjoin:hotpath
func (s *Sketch) JoinSizeMean(other *Sketch) float64 {
	if !sameFamily(s.fam, other.fam) {
		panic("core: JoinSizeMean across hash families")
	}
	var buf [maxStackK]float64
	ests := estScratch(&buf, s.params.K)
	for j := range s.rows {
		ests = append(ests, kernel.Dot(s.rows[j], other.rows[j]))
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
//
//ldpjoin:hotpath
func (s *Sketch) SelfJoinSize() float64 {
	ceps := ldp.CEpsilon(s.params.Epsilon)
	bias := (float64(s.params.M)*float64(s.params.K)*ceps*ceps - 1) * s.n
	var buf [maxStackK]float64
	ests := estScratch(&buf, s.params.K)
	for j := range s.rows {
		ests = append(ests, kernel.Dot(s.rows[j], s.rows[j])-bias)
	}
	return kernel.MedianInPlace(ests)
}

// Frequency estimates f(d) as mean_j M[j, h_j(d)]·ξ_j(d) (Theorem 7). The
// estimate is unbiased, but its error is heavy-tailed: a collision with a
// heavy item in a single row shifts the mean by f_heavy/k. Use
// FrequencyMedian when robustness matters more than unbiasedness.
//
//ldpjoin:hotpath
func (s *Sketch) Frequency(d uint64) float64 {
	var sum float64
	for j := range s.rows {
		sum += s.rows[j][s.fam.Bucket(j, d)] * float64(s.fam.Sign(j, d))
	}
	return sum / float64(s.params.K)
}

// FrequencyMedian estimates f(d) as median_j M[j, h_j(d)]·ξ_j(d) — the
// standard fast-AGMS/CountSketch estimator. Unlike the Theorem 7 mean it
// shrugs off single-row heavy-item collisions, which is essential when
// thresholding estimates over a large domain (phase 1 of LDPJoinSketch+):
// thresholding the mean harvests exactly the values whose estimate was
// inflated by a collision spike and floods FI with false positives.
//
//ldpjoin:hotpath
func (s *Sketch) FrequencyMedian(d uint64) float64 {
	var buf [maxStackK]float64
	return s.frequencyMedianInto(d, estScratch(&buf, s.params.K))
}

// frequencyMedianInto is FrequencyMedian over a caller-owned scratch
// buffer (capacity ≥ K, contents irrelevant) — the allocation-free
// inner call of the FI scan, whose workers each carry one scratch.
//
//ldpjoin:hotpath
func (s *Sketch) frequencyMedianInto(d uint64, ests []float64) float64 {
	ests = ests[:0]
	for j := range s.rows {
		ests = append(ests, s.rows[j][s.fam.Bucket(j, d)]*float64(s.fam.Sign(j, d)))
	}
	return kernel.MedianInPlace(ests)
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
		var f float64
		if useMean {
			f = s.Frequency(d)
		} else {
			f = s.frequencyMedianInto(d, ests)
		}
		if f > threshold {
			out = append(out, d)
		}
	}
	return out
}

// MinusConstant returns a copy of the sketch with c subtracted from every
// cell — the literal reading of Algorithm 5's removal of the uniform
// |NT|/m non-target contribution (Theorem 8). The serving path does not
// use it anymore: JoinSizeShifted computes the identical estimate with
// the offsets folded into the dot-product inner loop, skipping the two
// full-sketch copies. MinusConstant remains as the executable reference
// the property tests pin JoinSizeShifted against.
func (s *Sketch) MinusConstant(c float64) *Sketch {
	rows := make([][]float64, len(s.rows))
	for j := range rows {
		rows[j] = make([]float64, len(s.rows[j]))
		for x, v := range s.rows[j] {
			rows[j][x] = v - c
		}
	}
	return &Sketch{params: s.params, fam: s.fam, rows: rows, n: s.n}
}
