package core

import (
	"math/rand"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
)

// Collect simulates the protocol for a column of private values in
// parallel and returns the finalized sketch: the column is cut into
// shards contiguous chunks, chunk w perturbs its clients with an RNG
// seeded from (seed, w) and folds them into its own aggregator on
// kernel.RowApply, and the chunks merge in chunk order. Counts are
// integers, so the sketch is a deterministic function of
// (values, seed, shards), whatever GOMAXPROCS and the scheduling; with
// shards = 1 it is CollectColumn under an RNG seeded by seed.
func Collect(p Params, fam *hashing.Family, values []uint64, seed int64, shards int) *Sketch {
	return foldChunks(len(values), shards, seed, func(lo, hi int, rng *rand.Rand) *Aggregator {
		agg := NewAggregator(p, fam)
		agg.CollectColumn(values[lo:hi], rng)
		return agg
	}).Finalize()
}

// CollectMatrix is Collect for a two-column middle table: the same
// chunks and chunk seeds, each chunk folded by CollectTable.
func CollectMatrix(p MatrixParams, famA, famB *hashing.Family, a, b []uint64, seed int64, shards int) *MatrixSketch {
	if len(a) != len(b) {
		panic("core: CollectMatrix with mismatched columns")
	}
	return foldChunks(len(a), shards, seed, func(lo, hi int, rng *rand.Rand) *MatrixAggregator {
		agg := NewMatrixAggregator(p, famA, famB)
		agg.CollectTable(a[lo:hi], b[lo:hi], rng)
		return agg
	}).Finalize()
}

// foldChunks is the deterministic parallel build of Collect and
// CollectMatrix: n inputs cut into min(shards, n) contiguous chunks,
// chunk w folded into its own aggregator by fold with a client RNG
// seeded from (seed, w), the chunks run on kernel.RowApply and merged in
// chunk order. A single chunk folds everything with an RNG seeded by
// seed.
func foldChunks[A interface {
	comparable
	Merge(A)
}](n, shards int, seed int64, fold func(lo, hi int, rng *rand.Rand) A) A {
	chunks := min(shards, n)
	if chunks <= 1 {
		return fold(0, n, rand.New(rand.NewSource(seed)))
	}
	parts := make([]A, chunks)
	size := (n + chunks - 1) / chunks
	kernel.RowApply(chunks, func(w int) {
		if lo, hi := w*size, min((w+1)*size, n); lo < hi {
			parts[w] = fold(lo, hi, rand.New(rand.NewSource(shardSeed(seed, w))))
		}
	})
	var none, total A
	for _, part := range parts {
		switch {
		case part == none:
		case total == none:
			total = part
		default:
			total.Merge(part)
		}
	}
	return total
}

// shardSeed derives the client RNG seed of simulation chunk w.
func shardSeed(seed int64, w int) int64 {
	state := uint64(seed) ^ (uint64(w)+1)*0x9e3779b97f4a7c15
	return int64(hashing.SplitMix64(&state))
}
