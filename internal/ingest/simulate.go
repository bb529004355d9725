package ingest

import (
	"math/rand"
	"sync"

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
// table in parallel. Unlike Collect it keeps a single aggregator — a
// matrix replica is M1×M2 cells, so per-chunk copies would multiply a
// potentially huge state — and instead parallelizes the expensive client
// simulation on kernel.RowApply: chunk w perturbs its tuples with a seed
// derived from (seed, w) exactly as Simulate does, and the resulting
// reports are folded under a lock. Unfinalized cells are exact integers,
// so the fold interleaving cannot change the finalized sketch: the
// result is a deterministic function of (a, b, seed, Shards).
func CollectMatrix(p core.MatrixParams, famA, famB *hashing.Family, a, b []uint64, seed int64, opts Options) *core.MatrixSketch {
	if len(a) != len(b) {
		panic("ingest: CollectMatrix with mismatched columns")
	}
	chunks := opts.chunks(len(a))
	agg := core.NewMatrixAggregator(p, famA, famB)
	if chunks <= 1 {
		agg.CollectTable(a, b, rand.New(rand.NewSource(seed)))
		return agg.Finalize()
	}

	var foldMu sync.Mutex
	size := (len(a) + chunks - 1) / chunks
	kernel.RowApply(chunks, func(w int) {
		lo := w * size
		hi := min(lo+size, len(a))
		if lo >= hi {
			return
		}
		rng := rand.New(rand.NewSource(shardSeed(seed, w)))
		reports := make([]core.MatrixReport, 0, hi-lo)
		for i := lo; i < hi; i++ {
			reports = append(reports, core.PerturbTuple(a[i], b[i], p, famA, famB, rng))
		}
		foldMu.Lock()
		for _, r := range reports {
			agg.Add(r)
		}
		foldMu.Unlock()
	})
	return agg.Finalize()
}
