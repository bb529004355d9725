// Package ingest is a stand-in for ldpjoin/internal/ingest: the
// walorder analyzer matches apply/ack methods by name on a receiver
// from a package whose import path ends in "ingest".
package ingest

// Column accepts randomized reports once they are durable.
type Column struct{}

func (c *Column) EnqueueAllPooled(reports [][]byte) error    { return nil }
func (c *Column) Advance(round uint64) error                 { return nil }
func (c *Column) MergeAggregator(blob []byte) error          { return nil }
func (c *Column) MergePlus(blob []byte) error                { return nil }
func (c *Column) Len() int                                   { return 0 }
func (c *Column) Snapshot() []byte                           { return nil }
func (c *Column) Validate(reports [][]byte) ([][]byte, bool) { return reports, true }
