package protocol

import (
	"testing"

	"ldpjoin/internal/core"
)

// TestReportBatchPoolInvariant: whatever is Put, Get must always hand
// out an empty batch with exactly DefaultBatchSize capacity — the
// invariant the ingest folds and the chunked WAL replay rely on.
func TestReportBatchPoolInvariant(t *testing.T) {
	// Feed the pool legitimate, undersized, and oversized batches.
	PutReportBatch(GetReportBatch()[:17])
	PutReportBatch(make([]core.Report, 0, 10))
	PutReportBatch(make([]core.Report, 2*DefaultBatchSize))
	big := make([]core.Report, 3*DefaultBatchSize)
	PutReportBatch(big[:DefaultBatchSize]) // cap 3·B — rejected
	//ldpjoinvet:ignore poolown deliberate reuse: the wrong-capacity Put above was rejected, and the tail exercises the cap==B acceptance path
	PutReportBatch(big[2*DefaultBatchSize:])         // tail, cap exactly B — accepted
	PutMatrixBatch(make([]core.MatrixReport, 0, 10)) // wrong-capacity matrix
	PutMatrixBatch(GetMatrixBatch()[:1])

	for i := 0; i < 16; i++ {
		if b := GetReportBatch(); len(b) != 0 || cap(b) != DefaultBatchSize {
			t.Fatalf("GetReportBatch: len=%d cap=%d, want 0/%d", len(b), cap(b), DefaultBatchSize)
		}
		if b := GetMatrixBatch(); len(b) != 0 || cap(b) != DefaultBatchSize {
			t.Fatalf("GetMatrixBatch: len=%d cap=%d, want 0/%d", len(b), cap(b), DefaultBatchSize)
		}
	}
}
