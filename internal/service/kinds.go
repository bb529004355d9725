package service

import (
	"bufio"
	"fmt"
	"io"
	"net/http"

	"ldpjoin/internal/core"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/store"
)

// The mutating path — the three column operations, finalize, snapshot
// export, checkpoints, recovery — is written once, over the two
// interfaces below. Every server-side structure of the paper is a linear
// sketch, so the order of steps (register, gate, WAL-append, apply, ack)
// is the same for all of them; what differs is which codec reads the
// bytes and which ingest column folds them, and that is all a kind
// supplies. A fourth kind is one more file like join.go, matrix.go and
// plus.go and one more entry in kinds.

// kindOps is what a column kind supplies before a column exists: how to
// read its report streams, open a column, and place and restore its
// snapshots. Implementations are stateless.
type kindOps interface {
	// checkAttr validates the attribute slot a column of this kind would
	// occupy.
	checkAttr(s *Server, attr int) error
	// decodeReports drains the rest of a report stream whose header has
	// been read into owned, pooled batches.
	decodeReports(s *Server, name string, body *bufio.Reader, h protocol.Header) (batchSet, error)
	// newColumn opens an empty collecting column in slot attr.
	newColumn(s *Server, attr int) column
	// snapshotBound is the largest encoded snapshot of this kind the
	// server's configuration can produce.
	snapshotBound(s *Server) int
	// slot checks a decoded snapshot of this kind against the
	// deployment's parameters and families and returns the attribute
	// slot its seed fingerprint names.
	slot(s *Server, snap protocol.ColumnSnapshot) (attr int, err error)
	// restore rebuilds the finalized column a finalized snapshot of this
	// kind carries; the caller fills in the attribute slot.
	restore(snap protocol.ColumnSnapshot) (*finishedColumn, error)
}

// kinds is the kind table, keyed by the stream and manifest kind byte.
var kinds = map[protocol.Kind]kindOps{
	protocol.KindJoin:   joinKind{},
	protocol.KindMatrix: matrixKind{},
	protocol.KindPlus:   plusKind{},
}

// column is a collecting column of any kind, as the mutating path sees
// it. The batchSet and prepared-merge values it consumes were produced
// by its own kind (register refuses a name claimed by another), so
// implementations assert their concrete types.
type column interface {
	// N returns the reports accepted so far.
	N() int64
	// admit refuses a batch set the column cannot take: one past its
	// count limit (fits), or one its current phase cannot take — only
	// plus columns have phases.
	admit(b batchSet) error
	// appendReports makes the batch set durable in the column's WAL.
	appendReports(st *store.Store, name string, attr int, b batchSet) error
	// enqueuePooled folds the batch set into the ingest column, which
	// recycles each batch into the protocol pool once folded: on success
	// the caller must not touch b again.
	enqueuePooled(b batchSet) error
	// capture copies the column's current state into a mergeable
	// snapshot without consuming the column. As with drain, a failed
	// call's snapshot is meaningless (it may hold a nil pointer): check
	// the error, never the value.
	capture() (protocol.ColumnSnapshot, error)
	// drain retires the column into a mergeable snapshot.
	drain() (protocol.ColumnSnapshot, error)
	// finalize retires the column into its finalized form; the caller
	// fills in the attribute slot.
	finalize() (*finishedColumn, error)
	// prepareMerge restores the mergeable state a compatible, unfinalized
	// peer snapshot carries and checks it against the column's phase —
	// everything that can refuse the merge, so nothing the column would
	// reject reaches the WAL. A non-nil adopt is the advance a plus
	// column must cross first because the snapshot is a phase ahead.
	prepareMerge(snap protocol.ColumnSnapshot) (m any, adopt *advanceRequest, err error)
	// merge folds a prepared merge into the column, consuming it.
	merge(m any) error
}

// batchSet is one request's decoded reports, of whichever report type
// its kind streams.
type batchSet interface {
	// count is the number of reports in the set.
	count() int
	// group names the phase group a plus batch set feeds; "" otherwise.
	group() string
}

// reportBatches is the batchSet of the kinds whose streams carry nothing
// but reports. n is kept beside the batches because the count outlives
// them: after enqueuePooled the slices belong to the pool.
type reportBatches[R any] struct {
	batches [][]R
	n       int
}

func (b reportBatches[R]) count() int  { return b.n }
func (reportBatches[R]) group() string { return "" }

// readAllBatches drains a batch reader into owned batches, enforcing the
// per-request report cap and the no-empty-stream rule — an empty stream
// (valid header, zero reports) must not create the column, or a typo'd
// name would appear as a phantom "collecting" column in /v1/stats
// forever.
func readAllBatches[R any](s *Server, name string,
	next func(int) ([]R, error), count func() int) (reportBatches[R], error) {
	var batches [][]R
	for {
		batch, err := next(protocol.DefaultBatchSize)
		if err == io.EOF {
			break
		}
		if err != nil {
			return reportBatches[R]{}, statusError(http.StatusBadRequest, "decoding report stream: %v", err)
		}
		if count() > s.maxStream {
			return reportBatches[R]{}, statusError(http.StatusRequestEntityTooLarge,
				"stream exceeds %d reports per request", s.maxStream)
		}
		batches = append(batches, batch)
	}
	if count() == 0 {
		return reportBatches[R]{}, statusError(http.StatusBadRequest, "empty report stream for column %q", name)
	}
	return reportBatches[R]{batches: batches, n: count()}, nil
}

// oneBatch wraps the single pooled batch a store.Replayer reports call
// carries — the store already cut the record at the live ingest
// granularity — as the batch set the pooled enqueue consumes.
func oneBatch[R any](reports []R) reportBatches[R] {
	return reportBatches[R]{batches: [][]R{reports}, n: len(reports)}
}

// fits refuses more reports than a column has room for: every kind's
// state is int32 report counts, exact only up to core.MaxReports. The
// kinds call it from admit and prepareMerge, so the refusal comes before
// the WAL append and leaves the column as it was, still collecting.
func fits(c column, more int64) error {
	if n := c.N(); more > core.MaxReports-n {
		return fmt.Errorf("%d more reports would take the column past %d reports (it holds %d): its counts are int32s", more, core.MaxReports, n)
	}
	return nil
}

// spanInRange checks that a column spanning span attributes from attr
// fits the attribute families the server derives.
func (s *Server) spanInRange(attr, span int) error {
	if attr < 0 || attr+span > len(s.fams) {
		return fmt.Errorf("attribute %d out of range: the server derives %d attribute families (a matrix column spans attr and attr+1)",
			attr, len(s.fams))
	}
	return nil
}

// slotOf is the join and matrix kinds' slot: the snapshot's seed
// fingerprint names its attribute slot within the deployment's derived
// families.
func (s *Server) slotOf(snap protocol.ColumnSnapshot) (int, error) {
	_, attr, err := snap.(*protocol.Snapshot).Slot(s.params, s.matrixP, s.fams)
	return attr, err
}
