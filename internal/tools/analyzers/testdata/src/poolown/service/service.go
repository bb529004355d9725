// Package service exercises poolown on the service write path's shape:
// the decoded batch set reaches the column through the reports operation
// and, inside it, the service package's own per-kind column interface,
// whose enqueuePooled forwards it to EnqueueAllPooled — so the transfer
// happens at the interface call for the operation, and at the operation
// call for a handler.
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
	n() int
}

type server struct{}

// The reports operation reads what its result needs before the enqueue,
// and nothing after it.
func (server) reports(col column, batch batchSet) (int, error) {
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
func reportsLateCount(col column, batch batchSet) (int, error) {
	if err := col.enqueuePooled(batch); err != nil {
		return 0, err
	}
	return batch.count(), nil // want `batch used after enqueuePooled took ownership`
}

// Enqueueing the same batch set twice double-counts every report.
func reportsTwice(col column, batch batchSet) {
	_ = col.enqueuePooled(batch)
	_ = col.enqueuePooled(batch) // want `batch used after enqueuePooled took ownership`
}

// The handler gives the batch set away one level up, at the operation:
// it reads what the ack needs first, and the column stays its own.
func handleReports(s server, col column, batch batchSet) (int, error) {
	ingested := batch.count()
	if _, err := s.reports(col, batch); err != nil {
		return 0, err
	}
	sink = col.n() // ok: only the batch set transferred
	return ingested, nil
}

func handleReportsLateCount(s server, col column, batch batchSet) (int, error) {
	if _, err := s.reports(col, batch); err != nil {
		return 0, err
	}
	return batch.count(), nil // want `batch used after the reports operation took ownership`
}
