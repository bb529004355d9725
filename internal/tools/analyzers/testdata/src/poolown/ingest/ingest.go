// Package ingest is a stand-in for ldpjoin/internal/ingest: poolown
// matches EnqueueAllPooled by name on a receiver from a package whose
// import path ends in "ingest".
package ingest

import "ldpjoin/internal/tools/analyzers/testdata/src/poolown/protocol"

// Column accepts report batches for asynchronous application.
type Column struct{}

// EnqueueAllPooled schedules batches and recycles them into the
// protocol pools after application: ownership transfers on success.
// On error the batches were not scheduled and remain the caller's.
func (c *Column) EnqueueAllPooled(batches [][]protocol.Report) error { return nil }
