package ingest

import (
	"fmt"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// MatrixColumn is one middle-table (two-attribute) sketch under
// construction: the same generic column as Column — same lifecycle,
// same shard-and-merge exactness argument, same worker pool — over
// matrix reports.
type MatrixColumn = column[core.MatrixReport, *core.MatrixAggregator, *core.MatrixSketch]

// matrixShards is the number of partial aggregators a matrix column
// keeps. A matrix replica is M1×M2 cells, so one aggregator is K·M1·M2
// float64s — far heavier than a scalar column's K·M — and every extra
// shard multiplies that: folds into one matrix column serialize on its
// mutex, while distinct columns still fold concurrently on the worker
// pool (the same trade CollectMatrix makes).
const matrixShards = 1

// NewMatrixColumn creates an empty matrix column on the engine for the
// given matrix parameters and attribute families. The parameters may
// differ from the engine's scalar params in shape but share its worker
// pool and queue; famA must span M1 buckets and famB M2, both with K
// replicas.
func (e *Engine) NewMatrixColumn(p core.MatrixParams, famA, famB *hashing.Family) *MatrixColumn {
	return e.newMatrixColumn(p, famA, famB, matrixShards)
}

func (e *Engine) newMatrixColumn(p core.MatrixParams, famA, famB *hashing.Family, shards int) *MatrixColumn {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if famA.K() != p.K || famB.K() != p.K || famA.M() != p.M1 || famB.M() != p.M2 {
		panic("ingest: matrix column families do not match params")
	}
	return newColumn(e, columnKind[core.MatrixReport, *core.MatrixAggregator]{
		shards: shards,
		newAgg: func() *core.MatrixAggregator { return core.NewMatrixAggregator(p, famA, famB) },
		check: func(agg *core.MatrixAggregator) error {
			if ap := agg.Params(); ap != p || agg.FamilyA().Seed() != famA.Seed() || agg.FamilyB().Seed() != famB.Seed() {
				return fmt.Errorf("ingest: matrix aggregator (k=%d, m1=%d, m2=%d, ε=%g, seeds=%d,%d) does not match column (k=%d, m1=%d, m2=%d, ε=%g, seeds=%d,%d)",
					ap.K, ap.M1, ap.M2, ap.Epsilon, agg.FamilyA().Seed(), agg.FamilyB().Seed(),
					p.K, p.M1, p.M2, p.Epsilon, famA.Seed(), famB.Seed())
			}
			return nil
		},
		put:      protocol.PutMatrixBatch,
		snapshot: protocol.SnapshotOfMatrixAggregator,
	})
}
