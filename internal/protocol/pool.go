package protocol

import (
	"sync"

	"ldpjoin/internal/core"
)

// Batch pooling for the ingest hot path. Every report that enters the
// system rides a []core.Report (or []core.MatrixReport) batch from the
// stream decoder through the WAL append and into a column's fold, after
// which the batch is garbage — at DefaultBatchSize that is ~28 KiB of
// allocation per 4096 reports, all of it with an obvious lifetime. A
// batchPool recycles those batches: decoders draw from the pool, the
// fold (the single point where a batch dies) puts them back.
//
// The pool holds array pointers, not slices: a *[DefaultBatchSize]R is
// pointer-shaped, so neither Get nor Put allocates (a slice would have
// to be boxed, one 24-byte header per recycled batch). Put therefore
// accepts only batches with capacity exactly DefaultBatchSize — and that
// is also the aliasing guard: a sub-slice s[a:b] of a larger array has
// capacity cap(s)−a, so the only sub-slice that passes is the tail whose
// region [a, cap) overlaps no other chunk, and append-style reuse can
// never scribble on another live batch's cells.
type batchPool[R any] struct{ pool sync.Pool }

func newBatchPool[R any]() *batchPool[R] {
	return &batchPool[R]{pool: sync.Pool{New: func() any { return new([DefaultBatchSize]R) }}}
}

var (
	reportBatches = newBatchPool[core.Report]()
	matrixBatches = newBatchPool[core.MatrixReport]()
)

// Get returns an empty batch with capacity DefaultBatchSize, recycled
// when one is available.
func (p *batchPool[R]) Get() []R { return p.pool.Get().(*[DefaultBatchSize]R)[:0] }

// Put recycles a batch obtained from Get (or any slice whose capacity is
// exactly DefaultBatchSize — see the aliasing analysis above). The
// caller must not touch b afterwards. Batches of any other capacity are
// dropped for the garbage collector.
func (p *batchPool[R]) Put(b []R) {
	if cap(b) != DefaultBatchSize {
		return
	}
	p.pool.Put((*[DefaultBatchSize]R)(b[:DefaultBatchSize]))
}

// GetReportBatch returns an empty report batch from the join pool.
func GetReportBatch() []core.Report { return reportBatches.Get() }

// PutReportBatch recycles a report batch; the caller must not touch b
// afterwards.
func PutReportBatch(b []core.Report) { reportBatches.Put(b) }

// GetMatrixBatch returns an empty matrix-report batch from the matrix
// pool.
func GetMatrixBatch() []core.MatrixReport { return matrixBatches.Get() }

// PutMatrixBatch recycles a matrix-report batch; the caller must not
// touch b afterwards.
func PutMatrixBatch(b []core.MatrixReport) { matrixBatches.Put(b) }
