package protocol

import (
	"sync"

	"ldpjoin/internal/core"
)

// Batch pooling for the ingest hot path. Every report that enters the
// system rides a []core.Report (or []core.MatrixReport) batch from the
// stream decoder through the WAL append and into a fold worker, after
// which the batch is garbage — at DefaultBatchSize that is ~28 KiB of
// allocation per 4096 reports, all of it with an obvious lifetime. A
// batchPool recycles those batches: decoders draw from the pool, the
// fold workers (the single point where a batch dies) put them back.
//
// Put only accepts batches with capacity exactly DefaultBatchSize. That
// is not just a size filter — it is the aliasing guard that makes
// recycling safe with the recovery path, which decodes one WAL payload
// into a single slice and re-batches it by sub-slicing. A sub-slice
// s[a:b] of a larger decode has capacity cap(s)−a > DefaultBatchSize
// for every chunk but the last, so it is rejected; the last chunk's
// region [a, cap) extends to the end of the backing array and overlaps
// no other chunk, so append-style reuse (which writes only within
// [a, a+cap)) can never scribble on another live batch's cells.
type batchPool[R any] struct{ pool sync.Pool }

func newBatchPool[R any]() *batchPool[R] {
	return &batchPool[R]{pool: sync.Pool{New: func() any {
		b := make([]R, 0, DefaultBatchSize)
		return &b
	}}}
}

var (
	reportBatches = newBatchPool[core.Report]()
	matrixBatches = newBatchPool[core.MatrixReport]()
)

// Get returns an empty batch with capacity DefaultBatchSize, recycled
// when one is available.
//
//ldpjoin:hotpath
func (p *batchPool[R]) Get() []R { return (*p.pool.Get().(*[]R))[:0] }

// Put recycles a batch obtained from Get (or any slice whose capacity is
// exactly DefaultBatchSize — see the aliasing analysis above). The
// caller must not touch b afterwards. Batches of any other capacity are
// dropped for the garbage collector.
func (p *batchPool[R]) Put(b []R) {
	if cap(b) != DefaultBatchSize {
		return
	}
	b = b[:0]
	p.pool.Put(&b)
}

// GetReportBatch returns an empty report batch from the join pool.
//
//ldpjoin:hotpath
func GetReportBatch() []core.Report { return reportBatches.Get() }

// PutReportBatch recycles a report batch; the caller must not touch b
// afterwards.
func PutReportBatch(b []core.Report) { reportBatches.Put(b) }

// GetMatrixBatch returns an empty matrix-report batch from the matrix
// pool.
//
//ldpjoin:hotpath
func GetMatrixBatch() []core.MatrixReport { return matrixBatches.Get() }

// PutMatrixBatch recycles a matrix-report batch; the caller must not
// touch b afterwards.
func PutMatrixBatch(b []core.MatrixReport) { matrixBatches.Put(b) }
