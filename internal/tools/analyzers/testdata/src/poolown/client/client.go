// Package client exercises the poolown contract: once ownership of a
// pooled batch transfers — protocol.Put*Batch or a successful
// EnqueueAllPooled — any further use, through any alias, is a finding.
package client

import (
	"ldpjoin/internal/tools/analyzers/testdata/src/poolown/ingest"
	"ldpjoin/internal/tools/analyzers/testdata/src/poolown/protocol"
)

var sink int

// useAfterPut is the plain bug: write through a returned batch.
func useAfterPut() {
	b := protocol.GetReportBatch()
	b = append(b, protocol.Report{Index: 1})
	protocol.PutReportBatch(b)
	b[0] = protocol.Report{} // want `b used after protocol\.PutReportBatch took ownership`
}

// doublePut: the second Put is itself a use of a surrendered value.
func doublePut() {
	b := protocol.GetReportBatch()
	protocol.PutReportBatch(b)
	protocol.PutReportBatch(b) // want `b used after protocol\.PutReportBatch took ownership`
}

// returnAfterPut: returning the batch escapes it to the caller while
// the pool owns the backing array.
func returnAfterPut() []protocol.Report {
	b := protocol.GetReportBatch()
	protocol.PutReportBatch(b)
	return b // want `b used after protocol\.PutReportBatch took ownership`
}

// aliasThroughSubslice: a sub-slice shares the backing array, so
// consuming the root poisons the alias and vice versa.
func aliasThroughSubslice() {
	b := protocol.GetReportBatch()
	alias := b[:0]
	protocol.PutReportBatch(b)
	alias = append(alias, protocol.Report{}) // want `alias used after protocol\.PutReportBatch took ownership`
}

// matrixAfterPut covers the second pool.
func matrixAfterPut() {
	m := protocol.GetMatrixBatch()
	protocol.PutMatrixBatch(m)
	m[0][0]++ // want `m used after protocol\.PutMatrixBatch took ownership`
}

// enqueueCompositeLit: wrapping the batch in a literal for
// EnqueueAllPooled still transfers ownership of the element.
func enqueueCompositeLit(col *ingest.Column) {
	batch := protocol.GetReportBatch()
	_ = col.EnqueueAllPooled([][]protocol.Report{batch})
	sink = len(batch) // want `batch used after EnqueueAllPooled took ownership`
}

// enqueueContainer: consuming the container consumes every element
// bound from it.
func enqueueContainer(col *ingest.Column, batches [][]protocol.Report) {
	b := batches[1]
	_ = col.EnqueueAllPooled(batches)
	sink = len(b) // want `b used after EnqueueAllPooled took ownership`
}

// errBranchStillOwns pins the error-return carve-out: on failure the
// batches were never scheduled and remain the caller's, so the error
// branch may use (and recycle) them — but the success path may not.
func errBranchStillOwns(col *ingest.Column, batches [][]protocol.Report) error {
	if err := col.EnqueueAllPooled(batches); err != nil {
		sink = len(batches) // ok: ownership did not transfer on error
		return err
	}
	sink = len(batches) // want `batches used after EnqueueAllPooled took ownership`
	return nil
}

// loopCarried: a Put at the bottom of an iteration makes the use at
// the top of the next iteration a use-after-transfer — and the next
// Put a double-put.
func loopCarried(n int) {
	b := protocol.GetReportBatch()
	for i := 0; i < n; i++ {
		sink = len(b)              // want `b used after protocol\.PutReportBatch took ownership`
		protocol.PutReportBatch(b) // want `b used after protocol\.PutReportBatch took ownership`
	}
}

// reassignmentKills: re-binding to a fresh batch ends the taint.
func reassignmentKills() {
	b := protocol.GetReportBatch()
	protocol.PutReportBatch(b)
	b = protocol.GetReportBatch()
	b = append(b, protocol.Report{}) // ok: fresh batch
	protocol.PutReportBatch(b)
}

// elementPutLeavesContainer: recycling one element does not poison
// the container or its other elements, and a terminated branch
// (continue) does not leak its consumption into the next statement.
func elementPutLeavesContainer(batches [][]protocol.Report) {
	for _, batch := range batches {
		if len(batch) == 0 {
			protocol.PutReportBatch(batch)
			continue
		}
		sink += len(batch) // ok: the consumed path continued away
	}
	sink = len(batches) // ok: element Put does not consume the container
}

// waivedUse shows the escape hatch: a deliberate reuse carries its
// justification inline and produces no finding.
func waivedUse() {
	b := protocol.GetReportBatch()
	protocol.PutReportBatch(b)
	sink = len(b) //ldpjoinvet:ignore poolown fixture demonstrates a deliberate, justified reuse
}
