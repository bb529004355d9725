// Package protocol is a stand-in for ldpjoin/internal/protocol: the
// poolown analyzer matches the pool Put functions by name on a package
// whose import path ends in "protocol", and the generic batchPool's Put
// they forward to by receiver type.
package protocol

// Report is one randomized client report.
type Report struct {
	Index uint32
	Sign  int8
}

// batchPool is the one generic pool the exported Get/Put pairs forward
// to.
type batchPool[R any] struct{}

func (*batchPool[R]) Get() []R  { return nil }
func (*batchPool[R]) Put(b []R) {}

var reportBatches batchPool[Report]

// GetReportBatch hands out a pooled, zero-length report slice.
func GetReportBatch() []Report { return reportBatches.Get() }

// PutReportBatch returns a batch to the pool; the caller must not
// touch it afterwards.
func PutReportBatch(b []Report) { reportBatches.Put(b) }

// decodeAfterPut is the bug class the generic decoders could reintroduce
// inside the package: an error path that reads the batch after handing
// it back through the generic Put.
func decodeAfterPut[R any](pool *batchPool[R]) int {
	b := pool.Get()
	pool.Put(b)
	return len(b) // want `b used after batchPool\.Put took ownership`
}

// GetMatrixBatch hands out a pooled matrix row set.
func GetMatrixBatch() [][]float64 { return nil }

// PutMatrixBatch returns a matrix to the pool.
func PutMatrixBatch(m [][]float64) {}
