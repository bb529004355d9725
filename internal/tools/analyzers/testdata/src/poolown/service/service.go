// Package service exercises poolown on the unified handler's shape: the
// decoded batch set reaches the engine through the service package's own
// per-kind column interface, whose enqueuePooled forwards it to
// EnqueueAllPooled — so the transfer happens at the interface call.
package service

import "ldpjoin/internal/tools/analyzers/testdata/src/poolown/protocol"

var sink int

// batchSet is one request's decoded reports.
type batchSet struct {
	batches [][]protocol.Report
	n       int
}

func (b batchSet) count() int { return b.n }

type column interface {
	appendReports(b batchSet) error
	enqueuePooled(b batchSet) error
}

// The handler reads what the ack needs before the enqueue, and nothing
// after it.
func handleReports(col column, batch batchSet) (int, error) {
	ingested := batch.count()
	if err := col.appendReports(batch); err != nil { // ok: the WAL append only reads
		return 0, err
	}
	if err := col.enqueuePooled(batch); err != nil {
		sink = batch.count() // ok: ownership did not transfer on error
		return 0, err
	}
	return ingested, nil
}

// Counting after the enqueue touches a batch set the pool may already
// have handed to another decoder.
func handleReportsLateCount(col column, batch batchSet) (int, error) {
	if err := col.enqueuePooled(batch); err != nil {
		return 0, err
	}
	return batch.count(), nil // want `batch used after enqueuePooled took ownership`
}

// Enqueueing the same batch set twice double-counts every report.
func handleReportsTwice(col column, batch batchSet) {
	_ = col.enqueuePooled(batch)
	_ = col.enqueuePooled(batch) // want `batch used after enqueuePooled took ownership`
}
