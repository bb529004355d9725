package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ldpjoin/internal/dataset"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/join"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/ldp"
)

func matrixParams() MatrixParams { return MatrixParams{K: 2, M1: 8, M2: 4, Epsilon: 1.5} }

func TestPerturbTupleShape(t *testing.T) {
	p := matrixParams()
	famA := hashing.NewFamily(1, p.K, p.M1)
	famB := hashing.NewFamily(2, p.K, p.M2)
	rng := newTestRNG(3)
	for i := 0; i < 3000; i++ {
		r := PerturbTuple(uint64(i%50), uint64(i%37), p, famA, famB, rng)
		if r.Y != 1 && r.Y != -1 {
			t.Fatalf("Y = %d", r.Y)
		}
		if int(r.Row) >= p.K || int(r.L1) >= p.M1 || int(r.L2) >= p.M2 {
			t.Fatalf("indices out of range: %+v", r)
		}
	}
}

// tupleProb is the exact output distribution of the multiway client.
func tupleProb(a, b uint64, y int8, j, l1, l2 int, p MatrixParams, famA, famB *hashing.Family) float64 {
	w := int8(kernel.Entry(famA.Bucket(j, a), l1) *
		famA.Sign(j, a) * famB.Sign(j, b) *
		kernel.Entry(l2, famB.Bucket(j, b)))
	keep := ldp.KeepProb(p.Epsilon)
	base := 1 / float64(p.K*p.M1*p.M2)
	if y == w {
		return base * keep
	}
	return base * (1 - keep)
}

// TestPerturbTupleSatisfiesLDP extends the Theorem 1 enumeration to the
// two-attribute client of §VI: the ratio bound must hold for every pair
// of tuples, protecting both attributes jointly.
func TestPerturbTupleSatisfiesLDP(t *testing.T) {
	p := matrixParams()
	famA := hashing.NewFamily(4, p.K, p.M1)
	famB := hashing.NewFamily(5, p.K, p.M2)
	bound := math.Exp(p.Epsilon) + 1e-12
	tuples := [][2]uint64{{0, 0}, {1, 5}, {3, 3}, {7, 2}}
	for _, t1 := range tuples {
		for _, t2 := range tuples {
			for j := 0; j < p.K; j++ {
				for l1 := 0; l1 < p.M1; l1++ {
					for l2 := 0; l2 < p.M2; l2++ {
						for _, y := range []int8{-1, 1} {
							r := tupleProb(t1[0], t1[1], y, j, l1, l2, p, famA, famB) /
								tupleProb(t2[0], t2[1], y, j, l1, l2, p, famA, famB)
							if r > bound || r < 1/bound {
								t.Fatalf("tuple LDP violated: %v vs %v ratio %g", t1, t2, r)
							}
						}
					}
				}
			}
		}
	}
}

// TestMatrixSketchExpectation: a table holding a single repeated tuple
// must restore, on average, count·ξ_A(a)ξ_B(b) at [h_A(a), h_B(b)].
func TestMatrixSketchExpectation(t *testing.T) {
	p := MatrixParams{K: 2, M1: 8, M2: 8, Epsilon: 4}
	famA := hashing.NewFamily(6, p.K, p.M1)
	famB := hashing.NewFamily(7, p.K, p.M2)
	const n = 150000
	agg := NewMatrixAggregator(p, famA, famB)
	rng := newTestRNG(8)
	for i := 0; i < n; i++ {
		agg.Add(PerturbTuple(9, 4, p, famA, famB, rng))
	}
	ms := agg.Finalize()
	if ms.N() != n {
		t.Fatalf("N = %g", ms.N())
	}
	slack := 6 * math.Sqrt(float64(p.K)*math.Pow(ldp.CEpsilon(p.Epsilon), 2)*n)
	for j := 0; j < p.K; j++ {
		want := float64(n) * float64(famA.Sign(j, 9)*famB.Sign(j, 4))
		got := denseReplica(ms, j)[famA.Bucket(j, 9)*p.M2+famB.Bucket(j, 4)]
		if math.Abs(got-want) > slack {
			t.Fatalf("replica %d: cell %.0f, want %.0f ± %.0f", j, got, want, slack)
		}
	}
}

func multiwayFixture(seed int64, n int, domain uint64) (t1 []uint64, t2 join.PairTable, t3 []uint64) {
	t1 = dataset.Zipf(seed, n, domain, 1.5)
	t3 = dataset.Zipf(seed+1, n, domain, 1.5)
	t2.A = dataset.Zipf(seed+2, n, domain, 1.5)
	t2.B = dataset.Zipf(seed+3, n, domain, 1.5)
	return
}

func TestChainEstimate3Way(t *testing.T) {
	const n, domain = 100000, 200
	t1, t2, t3 := multiwayFixture(10, n, domain)
	truth := join.ChainSize(t1, []join.PairTable{t2}, t3)

	endP := Params{K: 9, M: 256, Epsilon: 6}
	midP := MatrixParams{K: 9, M1: 256, M2: 256, Epsilon: 6}
	famA := endP.NewFamily(11)
	famB := endP.NewFamily(12)

	rng := newTestRNG(13)
	agg1 := NewAggregator(endP, famA)
	agg1.CollectColumn(t1, rng)
	agg3 := NewAggregator(endP, famB)
	agg3.CollectColumn(t3, rng)
	aggM := NewMatrixAggregator(midP, famA, famB)
	aggM.CollectTable(t2.A, t2.B, rng)

	est := ChainEstimate(agg1.Finalize(), []*MatrixSketch{aggM.Finalize()}, agg3.Finalize())
	if re := math.Abs(est-truth) / truth; re > 0.5 {
		t.Fatalf("3-way LDP chain RE = %.3f (est %.3g truth %.3g)", re, est, truth)
	}
}

func TestChainEstimate4Way(t *testing.T) {
	const n, domain = 80000, 100
	t1, t2, t4 := multiwayFixture(20, n, domain)
	t3 := join.PairTable{
		A: dataset.Zipf(24, n, domain, 1.5),
		B: dataset.Zipf(25, n, domain, 1.5),
	}
	truth := join.ChainSize(t1, []join.PairTable{t2, t3}, t4)

	endP := Params{K: 9, M: 128, Epsilon: 8}
	midP := MatrixParams{K: 9, M1: 128, M2: 128, Epsilon: 8}
	famA := endP.NewFamily(26)
	famB := endP.NewFamily(27)
	famC := endP.NewFamily(28)

	rng := newTestRNG(29)
	agg1 := NewAggregator(endP, famA)
	agg1.CollectColumn(t1, rng)
	agg4 := NewAggregator(endP, famC)
	agg4.CollectColumn(t4, rng)
	aggM2 := NewMatrixAggregator(midP, famA, famB)
	aggM2.CollectTable(t2.A, t2.B, rng)
	aggM3 := NewMatrixAggregator(midP, famB, famC)
	aggM3.CollectTable(t3.A, t3.B, rng)

	est := ChainEstimate(agg1.Finalize(), []*MatrixSketch{aggM2.Finalize(), aggM3.Finalize()}, agg4.Finalize())
	if truth == 0 {
		t.Fatal("fixture produced empty 4-way join")
	}
	if re := math.Abs(est-truth) / truth; re > 1.0 {
		t.Fatalf("4-way LDP chain RE = %.3f (est %.3g truth %.3g)", re, est, truth)
	}
}

func TestMatrixAggregatorLifecycle(t *testing.T) {
	p := matrixParams()
	famA := hashing.NewFamily(1, p.K, p.M1)
	famB := hashing.NewFamily(2, p.K, p.M2)
	func() {
		agg := NewMatrixAggregator(p, famA, famB)
		agg.Finalize()
		defer func() {
			if recover() == nil {
				t.Error("expected panic: Add after Finalize")
			}
		}()
		agg.Add(MatrixReport{})
	}()
	func() {
		agg := NewMatrixAggregator(p, famA, famB)
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
		NewMatrixAggregator(p, famB, famA)
	}()
	func() {
		agg := NewMatrixAggregator(p, famA, famB)
		defer func() {
			if recover() == nil {
				t.Error("expected panic: ragged table")
			}
		}()
		agg.CollectTable([]uint64{1}, []uint64{1, 2}, rand.New(rand.NewSource(1)))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic: bad dims")
			}
		}()
		MatrixParams{K: 1, M1: 3, M2: 4, Epsilon: 1}.mustValidate()
	}()
}

func TestChainEstimatePanicsOnKMismatch(t *testing.T) {
	pa := Params{K: 2, M: 8, Epsilon: 1}
	pb := Params{K: 3, M: 8, Epsilon: 1}
	left := NewAggregator(pa, pa.NewFamily(1)).Finalize()
	right := NewAggregator(pb, pb.NewFamily(2)).Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ChainEstimate(left, nil, right)
}

// TestChainEstimatePanicsOnDimMismatch: a middle whose M1 is not the
// left end's width, or whose M2 is not the right end's, does not compose.
func TestChainEstimatePanicsOnDimMismatch(t *testing.T) {
	p := matrixParams()
	ms := NewMatrixAggregator(p, hashing.NewFamily(1, p.K, p.M1), hashing.NewFamily(2, p.K, p.M2)).Finalize()
	end := func(m int) *Sketch {
		ep := Params{K: p.K, M: m, Epsilon: 1}
		return NewAggregator(ep, ep.NewFamily(3)).Finalize()
	}
	for name, ends := range map[string][2]int{"left": {p.M1 * 2, p.M2}, "right": {p.M1, p.M2 * 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s end of the wrong width: expected panic", name)
				}
			}()
			ChainEstimate(end(ends[0]), []*MatrixSketch{ms}, end(ends[1]))
		}()
	}
}

// TestMatrixAggregatorMerge: merging two aggregators over disjoint halves
// of a report stream must finalize identically to one aggregator that saw
// every report — the exactness the sharded builders rely on.
func TestMatrixAggregatorMerge(t *testing.T) {
	p := MatrixParams{K: 3, M1: 16, M2: 8, Epsilon: 2}
	famA := hashing.NewFamily(1, p.K, p.M1)
	famB := hashing.NewFamily(2, p.K, p.M2)

	rng := rand.New(rand.NewSource(5))
	reports := make([]MatrixReport, 4000)
	for i := range reports {
		reports[i] = PerturbTuple(uint64(i%40), uint64(i%25), p, famA, famB, rng)
	}

	whole := NewMatrixAggregator(p, famA, famB)
	half1 := NewMatrixAggregator(p, famA, famB)
	half2 := NewMatrixAggregator(p, famA, famB)
	for i, r := range reports {
		whole.Add(r)
		if i < len(reports)/2 {
			half1.Add(r)
		} else {
			half2.Add(r)
		}
	}
	half1.Merge(half2)

	msWhole, msMerged := whole.Finalize(), half1.Finalize()
	if msWhole.N() != msMerged.N() {
		t.Fatalf("merged N = %g, want %g", msMerged.N(), msWhole.N())
	}
	if !reflect.DeepEqual(msWhole.Runs(), msMerged.Runs()) {
		t.Fatal("merged halves hold different counts from the whole")
	}

	// Merge must refuse finalized inputs and mismatched families.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Merge after Finalize did not panic")
			}
		}()
		half1.Merge(NewMatrixAggregator(p, famA, famB))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Merge across families did not panic")
			}
		}()
		other := NewMatrixAggregator(p, hashing.NewFamily(9, p.K, p.M1), famB)
		NewMatrixAggregator(p, famA, famB).Merge(other)
	}()
}

// TestMatrixCountsMatchDenseFold holds the sparse counts to a plain
// dense fold of the same reports, through many tail compactions — a
// 32×32 replica saturates, and most of its cells cancel to zero and back
// along the way — and through a merge of two aggregators whose tails
// are still pending.
func TestMatrixCountsMatchDenseFold(t *testing.T) {
	p := MatrixParams{K: 3, M1: 32, M2: 32, Epsilon: 2}
	famA, famB := hashing.NewFamily(1, p.K, p.M1), hashing.NewFamily(2, p.K, p.M2)
	rng := newTestRNG(4)
	want := make([][]int64, p.K)
	for j := range want {
		want[j] = make([]int64, p.M1*p.M2)
	}
	aggs := [2]*MatrixAggregator{NewMatrixAggregator(p, famA, famB), NewMatrixAggregator(p, famA, famB)}
	for b := 0; b < 40; b++ {
		batch := make([]MatrixReport, 1+rng.Intn(4096))
		for i := range batch {
			r := MatrixReport{Y: int8(2*rng.Intn(2) - 1), Row: uint32(rng.Intn(p.K)), L1: uint32(rng.Intn(p.M1)), L2: uint32(rng.Intn(p.M2))}
			batch[i] = r
			want[r.Row][int(r.L1)*p.M2+int(r.L2)] += int64(r.Y)
		}
		if err := aggs[b%2].AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	aggs[0].Merge(aggs[1])
	for j, run := range aggs[0].Finalize().Runs() {
		got := make([]int64, p.M1*p.M2)
		for i, e := range run {
			if e.Count == 0 || (i > 0 && e.Cell <= run[i-1].Cell) {
				t.Fatalf("replica %d entry %d (%+v) is not canonical", j, i, e)
			}
			got[e.Cell] = int64(e.Count)
		}
		if !reflect.DeepEqual(got, want[j]) {
			t.Fatalf("replica %d: sparse counts differ from the dense fold", j)
		}
	}
}
