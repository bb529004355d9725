package ingest

import (
	"math/rand"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
)

// Collect builds an LDPJoinSketch over a column of private values:
// chunk, simulate, merge, finalize. It is the drop-in replacement for
// the retired core.CollectParallel and produces bit-identical sketches
// for the same (values, seed, Shards): opts with Shards = 1 reproduces a
// sequential build, the zero Options an all-cores build.
func Collect(p core.Params, fam *hashing.Family, values []uint64, seed int64, opts Options) *core.Sketch {
	return NewEngine(p, fam, opts).Simulate(values, seed)
}

// CollectMatrix builds a middle-table matrix sketch over a two-column
// table in parallel, the way Simulate builds a join sketch: each chunk
// of the table folds its own aggregator, and the chunks merge in chunk
// order. Counts are integers, so the result is a deterministic function
// of (a, b, seed, Shards).
func CollectMatrix(p core.MatrixParams, famA, famB *hashing.Family, a, b []uint64, seed int64, opts Options) *core.MatrixSketch {
	if len(a) != len(b) {
		panic("ingest: CollectMatrix with mismatched columns")
	}
	return foldChunks(len(a), opts.chunks(len(a)), seed, func(lo, hi int, rng *rand.Rand) *core.MatrixAggregator {
		agg := core.NewMatrixAggregator(p, famA, famB)
		agg.CollectTable(a[lo:hi], b[lo:hi], rng)
		return agg
	}).Finalize()
}

// foldChunks is the deterministic parallel build of Simulate and
// CollectMatrix: n inputs cut into chunks contiguous chunks, chunk w
// folded into its own aggregator by fold with a client RNG seeded from
// (seed, w), the chunks run on kernel.RowApply and merged in chunk
// order. A single chunk folds everything with an RNG seeded by seed.
func foldChunks[A interface {
	comparable
	Merge(A)
}](n, chunks int, seed int64, fold func(lo, hi int, rng *rand.Rand) A) A {
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

// shardSeed derives the client RNG seed of simulation chunk w. The
// derivation is identical to the retired core.CollectParallel, so
// sketches built by Simulate reproduce its output bit for bit.
func shardSeed(seed int64, w int) int64 {
	state := uint64(seed) ^ (uint64(w)+1)*0x9e3779b97f4a7c15
	return int64(hashing.SplitMix64(&state))
}
