package core

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ldpjoin/internal/hashing"
)

// benchAggregator builds an aggregator at the deployment-ish shape the
// service benches use (K=9, M=512, ε=4) filled with perturbed reports
// over a Zipf-ish value range, ready to finalize.
func benchAggregator(tb testing.TB) *Aggregator {
	tb.Helper()
	p := Params{K: 9, M: 512, Epsilon: 4}
	fam := hashing.NewFamily(42, p.K, p.M)
	agg := NewAggregator(p, fam)
	rng := rand.New(rand.NewSource(7))
	data := make([]uint64, 1<<13)
	for i := range data {
		data[i] = uint64(rng.Intn(1 << 16))
	}
	agg.CollectColumn(data, rng)
	return agg
}

// BenchmarkRestore measures the restore a sketch's first join or
// frequency query pays: K independent fused scale+FWHT transforms over
// float copies of the counts. Each iteration hands the sketch its counts
// back so the restore always runs.
func BenchmarkRestore(b *testing.B) {
	s := benchAggregator(b).Finalize()
	counts := s.Counts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.counts.Store(&counts)
		s.restored.Store(nil)
		s.cells()
	}
}

// BenchmarkFrequentItems measures the FI scan (Algorithm 4's candidate
// sweep) over a 64Ki-item domain — large enough to engage the sharded
// path — with the median estimator the serving endpoint uses.
func BenchmarkFrequentItems(b *testing.B) {
	s := benchAggregator(b).Finalize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkItems = s.FrequentItems(1<<16, 64, false)
	}
}

// BenchmarkFrequencyMedian measures a single point lookup — the
// per-candidate cost inside the FI scan and the /v1/frequency path —
// which must stay allocation-free for K ≤ maxStackK.
func BenchmarkFrequencyMedian(b *testing.B) {
	s := benchAggregator(b).Finalize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSinkFloat = s.FrequencyMedian(uint64(i) & 0xffff)
	}
}

var (
	benchSinkItems []uint64
	benchSinkFloat float64
)

// BenchmarkAggregatorAddBatch is the ledger entry for the fold loop:
// one AddBatch of 4,096 reports (the ingest batch size) into a K=18,
// M=1024 aggregator, the daemon's default. The signs are RANDOM on
// purpose — and the batches rotate, so the predictor cannot learn one
// batch's sequence either. A report's sign is a fair coin by
// construction, so a fold that branches on it mispredicts every other
// report; constant or alternating signs predict perfectly and hide
// exactly the cost this benchmark exists to hold down.
func BenchmarkAggregatorAddBatch(b *testing.B) {
	p := Params{K: 18, M: 1024, Epsilon: 4}
	agg := NewAggregator(p, hashing.NewFamily(42, p.K, p.M))
	rng := rand.New(rand.NewSource(7))
	batches := make([][]Report, 16)
	for i := range batches {
		batches[i] = make([]Report, 4096)
		for j := range batches[i] {
			batches[i][j] = Report{Y: int8(2*rng.Intn(2) - 1), Row: uint32(rng.Intn(p.K)), Col: uint32(rng.Intn(p.M))}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.AddBatch(batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4096, "ns/report")
}

// benchTupleCounts are the matrix column sizes the chain benchmarks run
// at: bench/'s 2·10⁴ tuples, and the two sizes either side of where a
// K=18, M=1024 column stops being sparse (18.9 M cells).
var benchTupleCounts = []int{20_000, 1_000_000, 10_000_000}

// randomMatrixBatch fills batch with uniformly random tuple reports —
// the distribution PerturbTuple's (j, l1, l2, y) has, without hashing.
func randomMatrixBatch(batch []MatrixReport, p MatrixParams, rng *rand.Rand) {
	for i := range batch {
		batch[i] = MatrixReport{Y: int8(2*rng.Intn(2) - 1), Row: uint32(rng.Intn(p.K)), L1: uint32(rng.Intn(p.M1)), L2: uint32(rng.Intn(p.M2))}
	}
}

// benchMatrixSketch folds n random reports into a bench-shape (K=18,
// M=1024) matrix aggregator, 4,096 at a time, and finalizes it; it
// reports the finalized state's size in MB.
func benchMatrixSketch(b *testing.B, n int, timed bool) *MatrixSketch {
	p := MatrixParams{K: 18, M1: 1024, M2: 1024, Epsilon: 4}
	ma := NewMatrixAggregator(p, hashing.NewFamily(1, p.K, p.M1), hashing.NewFamily(2, p.K, p.M2))
	rng := rand.New(rand.NewSource(int64(n)))
	batch := make([]MatrixReport, 4096)
	for off := 0; off < n; off += len(batch) {
		batch = batch[:min(len(batch), n-off)]
		if timed {
			b.StopTimer()
		}
		randomMatrixBatch(batch, p, rng)
		if timed {
			b.StartTimer()
		}
		if err := ma.AddBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	ms := ma.Finalize()
	entries := 0
	for _, run := range ms.Runs() {
		entries += len(run)
	}
	b.ReportMetric(float64(8*entries)/1e6, "state-MB")
	return ms
}

// BenchmarkMatrixAddBatch is the fold of a whole matrix column, sort and
// merge of the tails included: ns/report to fold n reports and finalize.
func BenchmarkMatrixAddBatch(b *testing.B) {
	for _, n := range benchTupleCounts {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchMatrixSketch(b, n, true)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/report")
		})
	}
}

// BenchmarkChainEstimate is a 3-way chain estimate at the bench shape
// through a middle of n tuples, with both ends unrestored: one fused
// pass over the middle's run per replica, O(nnz), with no transform.
// The restored-left cases are the chain bench/ serves, whose left end a
// pair join has restored, through the bench's 2·10⁴-tuple middle:
// first derives the end's counts on every call (what the first chain
// over a restored end pays, once), warm reads the counts the first
// chain kept (what every later chain pays).
func BenchmarkChainEstimate(b *testing.B) {
	ep := Params{K: 18, M: 1024, Epsilon: 4}
	rng := rand.New(rand.NewSource(5))
	famL := hashing.NewFamily(1, ep.K, ep.M)
	left := filledEnd(ep, famL, 20_000, 1<<16, rng)
	right := filledEnd(ep, hashing.NewFamily(2, ep.K, ep.M), 20_000, 1<<16, rng)
	for _, n := range benchTupleCounts {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			mids := []*MatrixSketch{benchMatrixSketch(b, n, false)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSinkFloat = ChainEstimate(left, mids, right)
			}
		})
	}
	// restored returns a restored copy of left and the bench's middle.
	restored := func(b *testing.B) (*Sketch, []*MatrixSketch) {
		counts := make([][]int32, ep.K)
		for j, row := range left.Counts() {
			counts[j] = slices.Clone(row)
		}
		s, err := RestoreSketch(ep, famL, counts, left.N())
		if err != nil {
			b.Fatal(err)
		}
		s.cells()
		return s, []*MatrixSketch{benchMatrixSketch(b, benchTupleCounts[0], false)}
	}
	b.Run("restored-left/first", func(b *testing.B) {
		s, mids := restored(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.counts.Store(nil) // back to restored rows alone, as a join leaves it
			benchSinkFloat = ChainEstimate(s, mids, right)
		}
	})
	b.Run("restored-left/warm", func(b *testing.B) {
		s, mids := restored(b)
		ChainEstimate(s, mids, right)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSinkFloat = ChainEstimate(s, mids, right)
		}
	})
}
