package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ldpjoin/internal/dataset"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/join"
)

func TestAggregatorCounts(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(1)
	agg := NewAggregator(p, fam)
	rng := rand.New(rand.NewSource(1))
	agg.CollectColumn([]uint64{1, 2, 3}, rng)
	if agg.N() != 3 {
		t.Fatalf("N = %g, want 3", agg.N())
	}
	sk := agg.Finalize()
	if sk.N() != 3 {
		t.Fatalf("sketch N = %g, want 3", sk.N())
	}
	if sk.Params() != p || sk.Family() != fam {
		t.Fatal("sketch metadata lost")
	}
}

// TestAddBatchMatchesAdd: the fold loop the ingest engine calls lands
// exactly the cells a per-report Add does, and a report outside the
// sketch (or with a bad sign) is skipped and reported, not folded.
func TestAddBatchMatchesAdd(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(1)
	rng := rand.New(rand.NewSource(2))
	reports := make([]Report, 500)
	for i := range reports {
		reports[i] = Perturb(uint64(i%37), p, fam, rng)
	}
	one, batch := NewAggregator(p, fam), NewAggregator(p, fam)
	for _, r := range reports {
		one.Add(r)
	}
	bad := []Report{{Y: 1, Row: uint32(p.K)}, {Y: 1, Col: uint32(p.M)}, {Y: 0}}
	if err := batch.AddBatch(append(bad, reports...)); err == nil {
		t.Fatal("out-of-bounds reports not reported")
	}
	if batch.N() != one.N() {
		t.Fatalf("N = %g, want %g: a rejected report was counted", batch.N(), one.N())
	}
	for j, row := range one.Rows() {
		for x, v := range row {
			if batch.Rows()[j][x] != v {
				t.Fatalf("cell [%d, %d] = %d, want %d", j, x, batch.Rows()[j][x], v)
			}
		}
	}

	mp := MatrixParams{K: 3, M1: 8, M2: 4, Epsilon: 2}
	famA, famB := hashing.NewFamily(5, mp.K, mp.M1), hashing.NewFamily(6, mp.K, mp.M2)
	mone, mbatch := NewMatrixAggregator(mp, famA, famB), NewMatrixAggregator(mp, famA, famB)
	tuples := make([]MatrixReport, 200)
	for i := range tuples {
		tuples[i] = PerturbTuple(uint64(i%11), uint64(i%7), mp, famA, famB, rng)
		mone.Add(tuples[i])
	}
	mbad := []MatrixReport{{Y: 1, Row: uint32(mp.K)}, {Y: 1, L1: uint32(mp.M1)}, {Y: 1, L2: uint32(mp.M2)}, {Y: 2}}
	if err := mbatch.AddBatch(append(mbad, tuples...)); err == nil {
		t.Fatal("out-of-bounds matrix reports not reported")
	}
	if mbatch.N() != mone.N() {
		t.Fatalf("matrix N = %g, want %g", mbatch.N(), mone.N())
	}
	if !reflect.DeepEqual(mbatch.Runs(), mone.Runs()) {
		t.Fatal("matrix counts differ between AddBatch and Add")
	}
}

func TestAggregatorLifecyclePanics(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(1)
	func() {
		agg := NewAggregator(p, fam)
		agg.Finalize()
		defer func() {
			if recover() == nil {
				t.Error("expected panic: Add after Finalize")
			}
		}()
		agg.Add(Report{})
	}()
	func() {
		agg := NewAggregator(p, fam)
		agg.Finalize()
		defer func() {
			if recover() == nil {
				t.Error("expected panic: double Finalize")
			}
		}()
		agg.Finalize()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic: family mismatch")
			}
		}()
		NewAggregator(p, Params{K: 2, M: 8, Epsilon: 1}.NewFamily(1))
	}()
	func() {
		a := NewAggregator(p, fam)
		b := NewAggregator(p, p.NewFamily(99))
		defer func() {
			if recover() == nil {
				t.Error("expected panic: merge across families")
			}
		}()
		a.Merge(b)
	}()
}

// TestFrequencyUnbiased is Theorem 7 as a test: the mean of the frequency
// estimator across independent protocol runs converges on the truth.
func TestFrequencyUnbiased(t *testing.T) {
	p := Params{K: 4, M: 64, Epsilon: 2}
	data := dataset.Zipf(1, 3000, 100, 1.5)
	truth := join.Frequencies(data)
	const trials = 150
	var sum float64
	for i := 0; i < trials; i++ {
		fam := p.NewFamily(int64(1000 + i))
		agg := NewAggregator(p, fam)
		agg.CollectColumn(data, rand.New(rand.NewSource(int64(i))))
		sum += agg.Finalize().Frequency(0)
	}
	mean := sum / trials
	want := float64(truth[0])
	// Per-trial std ≈ c_ε·sqrt(k·n) ≈ 190; mean over 150 trials ≈ 16.
	if math.Abs(mean-want) > 80 {
		t.Fatalf("mean frequency estimate %.1f vs truth %.0f", mean, want)
	}
}

// TestFrequencyMeanMedianMatchesSeparateCalls: the one-pass frequency
// query returns what Frequency and FrequencyMedian return, bit for bit,
// and the mean is the row sum in row order over K — at K within and
// beyond maxStackK.
func TestFrequencyMeanMedianMatchesSeparateCalls(t *testing.T) {
	for _, p := range []Params{{K: 5, M: 64, Epsilon: 1}, {K: 18, M: 1024, Epsilon: 4}, {K: 40, M: 256, Epsilon: 2}} {
		s := filledAggregator(p, 3, 20000, 1000).Finalize()
		for d := uint64(0); d < 200; d++ {
			mean, median := s.FrequencyMeanMedian(d)
			var sum float64
			for j := 0; j < p.K; j++ {
				sum += s.Row(j)[s.fam.Bucket(j, d)] * float64(s.fam.Sign(j, d))
			}
			if f, fm, inline := s.Frequency(d), s.FrequencyMedian(d), sum/float64(p.K); mean != f || median != fm || f != inline {
				t.Fatalf("K=%d d=%d: FrequencyMeanMedian (%v, %v), Frequency %v, FrequencyMedian %v, row-order mean %v",
					p.K, d, mean, median, f, fm, inline)
			}
		}
	}
}

// TestJoinSizeUnbiased is Theorem 3 as a test: the mean of single-row
// join estimators across independent runs converges on the true join
// size.
func TestJoinSizeUnbiased(t *testing.T) {
	p := Params{K: 1, M: 64, Epsilon: 2}
	da := dataset.Zipf(2, 2000, 200, 1.5)
	db := dataset.Zipf(3, 2000, 200, 1.5)
	truth := join.Size(da, db)
	const trials = 300
	var sum float64
	for i := 0; i < trials; i++ {
		fam := p.NewFamily(int64(2000 + i))
		aggA := NewAggregator(p, fam)
		aggA.CollectColumn(da, rand.New(rand.NewSource(int64(2*i))))
		aggB := NewAggregator(p, fam)
		aggB.CollectColumn(db, rand.New(rand.NewSource(int64(2*i+1))))
		sum += aggA.Finalize().JoinSize(aggB.Finalize())
	}
	mean := sum / trials
	if re := math.Abs(mean-truth) / truth; re > 0.15 {
		t.Fatalf("mean join estimate %.0f vs truth %.0f (RE %.3f)", mean, truth, re)
	}
}

// TestJoinSizeEndToEnd runs the full protocol at realistic parameters and
// checks the headline behaviour: the private estimate lands close to the
// truth on skewed data.
func TestJoinSizeEndToEnd(t *testing.T) {
	p := Params{K: 9, M: 1024, Epsilon: 4}
	fam := p.NewFamily(5)
	da := dataset.Zipf(6, 100000, 10000, 1.5)
	db := dataset.Zipf(7, 100000, 10000, 1.5)
	truth := join.Size(da, db)
	rng := rand.New(rand.NewSource(8))
	aggA := NewAggregator(p, fam)
	aggA.CollectColumn(da, rng)
	aggB := NewAggregator(p, fam)
	aggB.CollectColumn(db, rng)
	est := aggA.Finalize().JoinSize(aggB.Finalize())
	if re := math.Abs(est-truth) / truth; re > 0.3 {
		t.Fatalf("end-to-end RE = %.3f (est %.0f truth %.0f)", re, est, truth)
	}
}

func TestMergeEqualsSequential(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(9)
	da := dataset.Zipf(10, 2000, 100, 1.2)

	// One aggregator over the whole column.
	whole := NewAggregator(p, fam)
	whole.CollectColumn(da[:1000], rand.New(rand.NewSource(100)))
	whole.CollectColumn(da[1000:], rand.New(rand.NewSource(101)))
	skWhole := whole.Finalize()

	// Two aggregators with the same per-part seeds, merged.
	p1 := NewAggregator(p, fam)
	p1.CollectColumn(da[:1000], rand.New(rand.NewSource(100)))
	p2 := NewAggregator(p, fam)
	p2.CollectColumn(da[1000:], rand.New(rand.NewSource(101)))
	p1.Merge(p2)
	skMerged := p1.Finalize()

	for j := 0; j < p.K; j++ {
		for x := 0; x < p.M; x++ {
			if skWhole.Row(j)[x] != skMerged.Row(j)[x] {
				t.Fatalf("merged sketch differs at [%d,%d]", j, x)
			}
		}
	}
}

func TestFrequentItemsFindsHeavyHitters(t *testing.T) {
	p := Params{K: 9, M: 2048, Epsilon: 4}
	fam := p.NewFamily(13)
	data := dataset.Zipf(14, 100000, 1000, 1.5)
	truth := join.Frequencies(data)
	agg := NewAggregator(p, fam)
	agg.CollectColumn(data, rand.New(rand.NewSource(15)))
	sk := agg.Finalize()
	fi := sk.FrequentItems(1000, 0.02*float64(len(data)), false)
	got := NewFISet(fi)
	// Every value above 4% truly frequent must be found; with the robust
	// median estimator nothing under a quarter of the threshold may sneak
	// in.
	for d, c := range truth {
		share := float64(c) / float64(len(data))
		if share > 0.04 && !got.Contains(d) {
			t.Errorf("missed clearly frequent value %d (share %.3f)", d, share)
		}
		if share < 0.005 && got.Contains(d) {
			t.Errorf("false frequent value %d (share %.4f)", d, share)
		}
	}

	// The mean-based variant (the paper's literal Theorem 7 reading) may
	// collect collision-spike false positives but must still recall the
	// heavy values.
	meanFI := NewFISet(sk.FrequentItems(1000, 0.02*float64(len(data)), true))
	for d, c := range truth {
		if share := float64(c) / float64(len(data)); share > 0.04 && !meanFI.Contains(d) {
			t.Errorf("mean variant missed frequent value %d (share %.3f)", d, share)
		}
	}
}

func TestJoinSizePanicsAcrossFamilies(t *testing.T) {
	p := testParams()
	a := NewAggregator(p, p.NewFamily(1)).Finalize()
	b := NewAggregator(p, p.NewFamily(2)).Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.JoinSize(b)
}
