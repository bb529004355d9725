package ingest

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/join"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/race"
)

func testParams() core.Params { return core.Params{K: 9, M: 512, Epsilon: 4} }

// enqueue feeds a column through its one enqueue, EnqueueAllPooled,
// handing over a fresh copy of every batch: the column owns (and may
// recycle into the protocol pool) what it is given, while the tests go
// on slicing and re-feeding their report arrays.
func enqueue[R any, A aggregator[R, A, S], S any](col *column[R, A, S], batches ...[]R) error {
	fresh := make([][]R, len(batches))
	for i, batch := range batches {
		fresh[i] = slices.Clone(batch)
	}
	return col.EnqueueAllPooled(fresh)
}

// perturbColumn perturbs a column client-side, yielding the wire-format
// reports a gateway would stream.
func perturbColumn(p core.Params, seed int64, data []uint64) []core.Report {
	fam := p.NewFamily(42)
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Report, len(data))
	for i, d := range data {
		out[i] = core.Perturb(d, p, fam, rng)
	}
	return out
}

func marshal(t *testing.T, sk *core.Sketch) []byte {
	t.Helper()
	raw, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEngineWireDeterminism: the finalized sketch over a fixed report
// stream must be byte-identical however the stream is cut into batches
// and requests — integral cells fold exactly.
func TestEngineWireDeterminism(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(42)
	data := dataset.Zipf(1, 30000, 3000, 1.3)
	reports := perturbColumn(p, 7, data)
	eng := NewEngine(p, fam, Options{})

	var want []byte
	for _, cut := range []struct{ batch, perRequest int }{
		{len(reports), 1},
		{997, 1}, // deliberately odd batch size
		{997, 4},
		{13, 50},
	} {
		col := eng.NewColumn()
		var request [][]core.Report
		for lo := 0; lo < len(reports); lo += cut.batch {
			request = append(request, reports[lo:min(lo+cut.batch, len(reports))])
			if len(request) == cut.perRequest || lo+cut.batch >= len(reports) {
				if err := enqueue(col, request...); err != nil {
					t.Fatal(err)
				}
				request = request[:0]
			}
		}
		if got, want := col.N(), int64(len(reports)); got != want {
			t.Fatalf("N = %d, want %d", got, want)
		}
		sk, err := col.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		raw := marshal(t, sk)
		if want == nil {
			want = raw
			continue
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("batches of %d, %d a request, produced a different sketch", cut.batch, cut.perRequest)
		}
	}
}

// TestEngineMatchesSequentialAggregator: the engine's fold must equal
// the plain one-aggregator fold the service used before sharding.
func TestEngineMatchesSequentialAggregator(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(42)
	reports := perturbColumn(p, 3, dataset.Zipf(2, 20000, 2000, 1.3))

	agg := core.NewAggregator(p, fam)
	for _, r := range reports {
		agg.Add(r)
	}
	want := marshal(t, agg.Finalize())

	col := NewEngine(p, fam, Options{}).NewColumn()
	for lo := 0; lo < len(reports); lo += 1024 {
		hi := min(lo+1024, len(reports))
		if err := enqueue(col, reports[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	sk, err := col.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, sk), want) {
		t.Fatal("engine fold differs from sequential aggregator")
	}
}

// TestEngineConcurrentColumns ingests into several columns from several
// goroutines at once — the -race exercise of the column locking.
func TestEngineConcurrentColumns(t *testing.T) {
	p := core.Params{K: 4, M: 64, Epsilon: 2}
	fam := p.NewFamily(42)
	eng := NewEngine(p, fam, Options{})

	const columns, producers, perProducer = 3, 4, 10
	cols := make([]*Column, columns)
	for i := range cols {
		cols[i] = eng.NewColumn()
	}
	reports := perturbColumn(p, 5, dataset.Zipf(3, 4000, 50, 1.2))

	var wg sync.WaitGroup
	for c := 0; c < columns; c++ {
		for g := 0; g < producers; g++ {
			wg.Add(1)
			go func(col *Column, g int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					lo := (g*perProducer + i) * 100 % (len(reports) - 100)
					if err := enqueue(col, reports[lo:lo+100]); err != nil {
						t.Errorf("enqueue: %v", err)
						return
					}
				}
			}(cols[c], g)
		}
	}
	wg.Wait()

	want := int64(producers * perProducer * 100)
	for i, col := range cols {
		if col.N() != want {
			t.Fatalf("column %d N = %d, want %d", i, col.N(), want)
		}
		sk, err := col.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if sk.N() != float64(want) {
			t.Fatalf("column %d sketch N = %g", i, sk.N())
		}
	}
}

func TestColumnLifecycleErrors(t *testing.T) {
	p := core.Params{K: 2, M: 16, Epsilon: 1}
	fam := p.NewFamily(1)
	eng := NewEngine(p, fam, Options{})
	col := eng.NewColumn()
	if err := enqueue(col, nil); err != nil {
		t.Fatalf("empty enqueue: %v", err)
	}
	if err := enqueue(col, []core.Report{{Y: 1, Row: 0, Col: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Finalize(); err != ErrFinalized {
		t.Fatalf("double finalize err = %v, want ErrFinalized", err)
	}
	if err := enqueue(col, []core.Report{{Y: 1, Row: 0, Col: 1}}); err != ErrFinalized {
		t.Fatalf("post-finalize enqueue err = %v, want ErrFinalized", err)
	}

	// An out-of-bounds report fails the call that carries it, and the
	// column stays poisoned: later enqueues and Finalize refuse with the
	// same error, so no sketch is ever built over it.
	bad := eng.NewColumn()
	if err := enqueue(bad, []core.Report{{Y: 1, Row: 0, Col: 1}}); err != nil {
		t.Fatal(err)
	}
	oob := enqueue(bad, []core.Report{{Y: 1, Row: 0, Col: 2}}, []core.Report{{Y: 1, Row: 9, Col: 1}})
	if oob == nil || !strings.Contains(oob.Error(), "out of sketch bounds") {
		t.Fatalf("out-of-bounds enqueue err = %v, want the AddBatch bounds error", oob)
	}
	if err := enqueue(bad, []core.Report{{Y: -1, Row: 1, Col: 3}}); err != oob {
		t.Fatalf("enqueue into a poisoned column err = %v, want %v", err, oob)
	}
	if _, err := bad.State(); err != oob {
		t.Fatalf("State of a poisoned column err = %v, want %v", err, oob)
	}
	if _, err := bad.Finalize(); err != oob {
		t.Fatalf("Finalize of a poisoned column err = %v, want %v", err, oob)
	}
}

// TestSimulateDeterministicAndAccurate ports the retired
// core.CollectParallel test: fixed (seed, shards) must reproduce
// bit-identically, independent of GOMAXPROCS, and the result must match
// a sequential build using the same per-shard seeds.
func TestSimulateDeterministicAndAccurate(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(20)
	da := dataset.Zipf(21, 50000, 5000, 1.5)
	db := dataset.Zipf(22, 50000, 5000, 1.5)

	build := func(data []uint64, seed int64, opt Options) *core.Sketch {
		return NewEngine(p, fam, opt).Simulate(data, seed)
	}

	s1 := withProcs(1, func() *core.Sketch { return build(da, 99, Options{Shards: 4}) })
	s2 := withProcs(4, func() *core.Sketch { return build(da, 99, Options{Shards: 4}) })
	if !bytes.Equal(marshal(t, s1), marshal(t, s2)) {
		t.Fatal("Simulate is not GOMAXPROCS independent")
	}
	if s1.N() != 50000 {
		t.Fatalf("simulated N = %g, want 50000", s1.N())
	}

	// Reference: sequential build over the same chunks and shard seeds.
	ref := core.NewAggregator(p, fam)
	chunk := (len(da) + 3) / 4
	for w := 0; w < 4; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(da))
		part := core.NewAggregator(p, fam)
		part.CollectColumn(da[lo:hi], rand.New(rand.NewSource(shardSeed(99, w))))
		ref.Merge(part)
	}
	if !bytes.Equal(marshal(t, ref.Finalize()), marshal(t, s1)) {
		t.Fatal("Simulate differs from the per-shard sequential reference")
	}

	sb := build(db, 77, Options{Shards: 4})
	truth := join.Size(da, db)
	if re := math.Abs(s1.JoinSize(sb)-truth) / truth; re > 0.4 {
		t.Fatalf("simulated join RE = %.3f", re)
	}

	// Degenerate shard counts must still work.
	if sk := build(da[:10], 1, Options{Shards: 64}); sk.N() != 10 {
		t.Fatalf("tiny simulate N = %g", sk.N())
	}
	if sk := build(da[:100], 1, Options{}); sk.N() != 100 {
		t.Fatalf("auto-shard N = %g", sk.N())
	}
	if sk := Collect(p, fam, da[:100], 1, Options{Shards: 1}); sk.N() != 100 {
		t.Fatalf("Collect sequential N = %g", sk.N())
	}
}

// withProcs runs f with GOMAXPROCS set to procs, restoring it after.
func withProcs[T any](procs int, f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return f()
}

// TestCollectMatrixDeterministicAndAccurate checks the parallel
// middle-table build: fixed (seed, shards) reproduces exactly whatever
// GOMAXPROCS, and the chain estimate stays accurate.
func TestCollectMatrixDeterministicAndAccurate(t *testing.T) {
	mp := core.MatrixParams{K: 9, M1: 256, M2: 256, Epsilon: 6}
	famA := core.Params{K: 9, M: 256, Epsilon: 6}.NewFamily(1)
	famB := core.Params{K: 9, M: 256, Epsilon: 6}.NewFamily(2)
	const n, domain = 60000, 300
	a := dataset.Zipf(51, n, domain, 1.5)
	b := dataset.Zipf(52, n, domain, 1.5)

	collect := func() *core.MatrixSketch { return CollectMatrix(mp, famA, famB, a, b, 9, Options{Shards: 4}) }
	m1 := withProcs(1, collect)
	m2 := withProcs(4, collect)
	if m1.N() != n || m2.N() != n {
		t.Fatalf("matrix N = %g, %g", m1.N(), m2.N())
	}
	for j := 0; j < mp.K; j++ {
		r1, r2 := m1.Mat(j), m2.Mat(j)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatal("CollectMatrix is not GOMAXPROCS independent")
			}
		}
	}

	// Accuracy end to end: 3-way chain against the exact size.
	endP := core.Params{K: 9, M: 256, Epsilon: 6}
	t1 := dataset.Zipf(53, n, domain, 1.5)
	t3 := dataset.Zipf(54, n, domain, 1.5)
	left := Collect(endP, famA, t1, 3, Options{})
	right := Collect(endP, famB, t3, 4, Options{})
	truth := join.ChainSize(t1, []join.PairTable{{A: a, B: b}}, t3)
	est := core.ChainEstimate(left, []*core.MatrixSketch{m1}, right)
	if re := math.Abs(est-truth) / truth; re > 0.6 {
		t.Fatalf("chain RE = %.3f (est %.4g truth %.4g)", re, est, truth)
	}
}

// TestEnqueueAllAtomicity: a multi-batch enqueue is all-or-nothing with
// respect to finalize — after Finalize it applies none of its batches.
func TestEnqueueAllAtomicity(t *testing.T) {
	p := core.Params{K: 2, M: 16, Epsilon: 1}
	col := NewEngine(p, p.NewFamily(1), Options{}).NewColumn()
	batches := [][]core.Report{
		{{Y: 1, Row: 0, Col: 1}, {Y: -1, Row: 1, Col: 2}},
		nil, // empty batches are skipped
		{{Y: 1, Row: 1, Col: 3}},
	}
	if err := enqueue(col, batches...); err != nil {
		t.Fatal(err)
	}
	if col.N() != 3 {
		t.Fatalf("N = %d, want 3", col.N())
	}
	sk, err := col.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if sk.N() != 3 {
		t.Fatalf("sketch N = %g, want 3", sk.N())
	}
	if err := enqueue(col, batches...); err != ErrFinalized {
		t.Fatalf("post-finalize enqueue err = %v, want ErrFinalized", err)
	}
}

// TestEnqueueFoldAllocations is the allocation ceiling of the enqueue →
// fold stage: one request of four pooled batches folded into a column.
// A count, not a timing, so it blocks on any machine. The fold is inline
// and every batch goes back to the pool, so a request allocates nothing
// once the column's aggregator exists (AllocsPerRun's warm-up run makes
// it).
func TestEnqueueFoldAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop batches at random; the counts mean nothing")
	}
	p := testParams()
	col := NewEngine(p, p.NewFamily(42), Options{}).NewColumn()
	reports := perturbColumn(p, 5, dataset.Zipf(5, protocol.DefaultBatchSize, 100, 1.2))
	batches := make([][]core.Report, 4)
	n := testing.AllocsPerRun(20, func() {
		for i := range batches {
			batches[i] = append(protocol.GetReportBatch(), reports...)
		}
		if err := col.EnqueueAllPooled(batches); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("enqueueing and folding a 4-batch request allocates %v times, ceiling 0", n)
	}
}
