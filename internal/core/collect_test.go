package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ldpjoin/internal/dataset"
	"ldpjoin/internal/join"
)

// TestCollectDeterministicAndAccurate: fixed (seed, shards) must
// reproduce bit-identically, independent of GOMAXPROCS, and the result
// must match a sequential build using the same per-shard seeds.
func TestCollectDeterministicAndAccurate(t *testing.T) {
	p := Params{K: 9, M: 512, Epsilon: 4}
	fam := p.NewFamily(20)
	da := dataset.Zipf(21, 50000, 5000, 1.5)
	db := dataset.Zipf(22, 50000, 5000, 1.5)

	build := func(data []uint64, seed int64, shards int) *Sketch {
		return Collect(p, fam, data, seed, shards)
	}

	s1 := withProcs(1, func() *Sketch { return build(da, 99, 4) })
	s2 := withProcs(4, func() *Sketch { return build(da, 99, 4) })
	if !bytes.Equal(marshalSketch(t, s1), marshalSketch(t, s2)) {
		t.Fatal("Collect is not GOMAXPROCS independent")
	}
	if s1.N() != 50000 {
		t.Fatalf("simulated N = %g, want 50000", s1.N())
	}

	// Reference: sequential build over the same chunks and shard seeds.
	ref := NewAggregator(p, fam)
	chunk := (len(da) + 3) / 4
	for w := 0; w < 4; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(da))
		part := NewAggregator(p, fam)
		part.CollectColumn(da[lo:hi], rand.New(rand.NewSource(shardSeed(99, w))))
		ref.Merge(part)
	}
	if !bytes.Equal(marshalSketch(t, ref.Finalize()), marshalSketch(t, s1)) {
		t.Fatal("Collect differs from the per-shard sequential reference")
	}

	sb := build(db, 77, 4)
	truth := join.Size(da, db)
	if re := math.Abs(s1.JoinSize(sb)-truth) / truth; re > 0.4 {
		t.Fatalf("simulated join RE = %.3f", re)
	}

	// Degenerate shard counts must still work.
	if sk := build(da[:10], 1, 64); sk.N() != 10 {
		t.Fatalf("tiny collect N = %g", sk.N())
	}
	if sk := build(da[:100], 1, runtime.GOMAXPROCS(0)); sk.N() != 100 {
		t.Fatalf("all-core collect N = %g", sk.N())
	}
	if sk := build(da[:100], 1, 0); sk.N() != 100 {
		t.Fatalf("zero-shard collect N = %g", sk.N())
	}
	seq := NewAggregator(p, fam)
	seq.CollectColumn(da[:100], rand.New(rand.NewSource(1)))
	if !bytes.Equal(marshalSketch(t, build(da[:100], 1, 1)), marshalSketch(t, seq.Finalize())) {
		t.Fatal("one-shard Collect differs from CollectColumn")
	}
}

func marshalSketch(t *testing.T, sk *Sketch) []byte {
	t.Helper()
	raw, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return raw
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
	mp := MatrixParams{K: 9, M1: 256, M2: 256, Epsilon: 6}
	endP := Params{K: 9, M: 256, Epsilon: 6}
	famA := endP.NewFamily(1)
	famB := endP.NewFamily(2)
	const n, domain = 60000, 300
	a := dataset.Zipf(51, n, domain, 1.5)
	b := dataset.Zipf(52, n, domain, 1.5)

	collect := func() *MatrixSketch { return CollectMatrix(mp, famA, famB, a, b, 9, 4) }
	m1 := withProcs(1, collect)
	m2 := withProcs(4, collect)
	if m1.N() != n || m2.N() != n {
		t.Fatalf("matrix N = %g, %g", m1.N(), m2.N())
	}
	if !reflect.DeepEqual(m1.Runs(), m2.Runs()) {
		t.Fatal("CollectMatrix is not GOMAXPROCS independent")
	}

	// Accuracy end to end: 3-way chain against the exact size.
	t1 := dataset.Zipf(53, n, domain, 1.5)
	t3 := dataset.Zipf(54, n, domain, 1.5)
	left := Collect(endP, famA, t1, 3, runtime.GOMAXPROCS(0))
	right := Collect(endP, famB, t3, 4, runtime.GOMAXPROCS(0))
	truth := join.ChainSize(t1, []join.PairTable{{A: a, B: b}}, t3)
	est := ChainEstimate(left, []*MatrixSketch{m1}, right)
	if re := math.Abs(est-truth) / truth; re > 0.6 {
		t.Fatalf("chain RE = %.3f (est %.4g truth %.4g)", re, est, truth)
	}
}
