// Package service exercises the walorder analyzer: in the column
// operations (//ldpjoin:operation), the store WAL append must dominate
// the ingest apply on every control-flow path; everywhere else an apply
// may not appear at all.
package service

import (
	"ldpjoin/internal/tools/analyzers/testdata/src/walorder/ingest"
	"ldpjoin/internal/tools/analyzers/testdata/src/walorder/store"
)

type server struct {
	st  *store.Store
	col *ingest.Column
}

// The contract shape: append (guarded by the in-memory-mode nil check),
// then apply. The `if s.st != nil` guard counts as domination — columns
// without a durable store, and WAL replay before the server adopts its
// store, have nothing to append to.
//
//ldpjoin:operation
func (s *server) reports(reports [][]byte) error {
	if s.st != nil {
		if err := s.st.AppendReports("col", reports); err != nil {
			return err
		}
	}
	return s.col.EnqueueAllPooled(reports)
}

// No append at all before the apply.
//
//ldpjoin:operation
func (s *server) reportsVolatile(reports [][]byte) error {
	return s.col.EnqueueAllPooled(reports) // want `ingest s\.col\.EnqueueAllPooled is not dominated by a store WAL append`
}

// The PR 7 bug shape: apply first, append after — a crash between the
// two acks data the WAL never saw.
//
//ldpjoin:operation
func (s *server) applyThenAppend(reports [][]byte) error {
	if err := s.col.EnqueueAllPooled(reports); err != nil { // want `ingest s\.col\.EnqueueAllPooled is not dominated by a store WAL append`
		return err
	}
	return s.st.AppendReports("col", reports)
}

// An append on only one branch does not dominate: the else arm reaches
// the apply without durability. (A plain condition is not the
// in-memory-mode exemption; only a nil check on the store qualifies.)
//
//ldpjoin:operation
func (s *server) branchyAppend(reports [][]byte, durable bool) error {
	if durable {
		if err := s.st.AppendReports("col", reports); err != nil {
			return err
		}
	}
	return s.col.EnqueueAllPooled(reports) // want `ingest s\.col\.EnqueueAllPooled is not dominated by a store WAL append`
}

// Appending on both arms of a branch does dominate.
//
//ldpjoin:operation
func (s *server) eitherAppend(reports [][]byte, matrix bool) error {
	if matrix {
		if err := s.st.AppendMatrixReports("col", reports); err != nil {
			return err
		}
	} else {
		if err := s.st.AppendReports("col", reports); err != nil {
			return err
		}
	}
	return s.col.EnqueueAllPooled(reports)
}

// Advance is an apply too, and AppendPlusAdvance is its append.
//
//ldpjoin:operation
func (s *server) advanceLocked(round uint64) error {
	if s.st != nil {
		if err := s.st.AppendPlusAdvance("col", round); err != nil {
			return err
		}
	}
	return s.col.Advance(round)
}

//ldpjoin:operation
func (s *server) advanceVolatile(round uint64) error {
	return s.col.Advance(round) // want `ingest s\.col\.Advance is not dominated by a store WAL append`
}

// Merges follow the same contract, and one operation may run another's
// body: calling an operation is not an apply, so crossing the phase
// boundary needs no append of merge's own before it.
//
//ldpjoin:operation
func (s *server) mergeAdopting(blob []byte, round uint64) error {
	if err := s.advanceLocked(round); err != nil {
		return err
	}
	if s.st != nil {
		if err := s.st.AppendMerge("col", blob); err != nil {
			return err
		}
	}
	return s.col.MergeAggregator(blob)
}

//ldpjoin:operation
func (s *server) mergeVolatile(blob []byte) error {
	return s.col.MergePlus(blob) // want `ingest s\.col\.MergePlus is not dominated by a store WAL append`
}

// The inverse rule: outside the operations nothing applies. A handler
// that folds reports itself has written a second write path — even a
// correctly ordered one is one more place the order can rot.
func (s *server) handleReports(reports [][]byte) error {
	if s.st != nil {
		if err := s.st.AppendReports("col", reports); err != nil {
			return err
		}
	}
	return s.col.EnqueueAllPooled(reports) // want `ingest s\.col\.EnqueueAllPooled outside the column operations`
}

// Recovery is no exception: replay goes through the operations (whose
// nil-store guard is what skips the log), not around them.
func (s *server) replayRecovered(reports [][]byte, round uint64) error {
	if err := s.col.Advance(round); err != nil { // want `ingest s\.col\.Advance outside the column operations`
		return err
	}
	return s.col.EnqueueAllPooled(reports) // want `ingest s\.col\.EnqueueAllPooled outside the column operations`
}

// An apply hidden in a closure is still outside.
func (s *server) handleDeferred(blob []byte) func() error {
	return func() error {
		return s.col.MergeAggregator(blob) // want `ingest s\.col\.MergeAggregator outside the column operations`
	}
}

// What a handler and a recovery callback do instead: call the operation.
func (s *server) handleReportsRight(reports [][]byte) error { return s.reports(reports) }

// Read-only ingest calls are not applies; code that only inspects state
// owes the WAL nothing.
func (s *server) handleStats() int {
	return s.col.Len()
}

// A waived apply documents why the contract does not hold here.
func (s *server) handleShadowApply(reports [][]byte) error {
	//ldpjoinvet:ignore walorder shadow column for A/B accuracy, never acked to clients
	return s.col.EnqueueAllPooled(reports)
}

// column is the operations' real shape: the service package's own
// per-kind interface stands between the operation and both the store
// append and the ingest apply, so its method names carry the roles.
type column interface {
	appendReports(st *store.Store, name string, reports [][]byte) error
	enqueuePooled(reports [][]byte) error
	merge(blob []byte) error
	n() int
}

type unified struct {
	st  *store.Store
	col column
}

// The contract shape through the interface.
//
//ldpjoin:operation
func (s *unified) reports(reports [][]byte) error {
	if s.st != nil {
		if err := s.col.appendReports(s.st, "col", reports); err != nil {
			return err
		}
	}
	return s.col.enqueuePooled(reports)
}

// Apply-before-append through the interface is the same bug.
//
//ldpjoin:operation
func (s *unified) applyThenAppend(reports [][]byte) error {
	if err := s.col.enqueuePooled(reports); err != nil { // want `ingest s\.col\.enqueuePooled is not dominated by a store WAL append`
		return err
	}
	return s.col.appendReports(s.st, "col", reports)
}

// A merge is an apply; the store's AppendMerge is still its append. The
// operation shares the apply method's name — calling it is not an apply.
//
//ldpjoin:operation
func (s *unified) merge(blob []byte) error {
	if s.st != nil {
		if err := s.st.AppendMerge("col", blob); err != nil {
			return err
		}
	}
	return s.col.merge(blob)
}

func (s *unified) handleMerge(blob []byte) error { return s.merge(blob) }

//ldpjoin:operation
func (s *unified) mergeVolatile(blob []byte) error {
	return s.col.merge(blob) // want `ingest s\.col\.merge is not dominated by a store WAL append`
}

// Outside an operation the interface's applies are refused like the
// ingest column's own.
func (s *unified) handleMergeDirect(blob []byte) error {
	return s.col.merge(blob) // want `ingest s\.col\.merge outside the column operations`
}

// Reading through the interface owes the WAL nothing.
func (s *unified) handleStatus() int {
	return s.col.n()
}

// joinColumn is a per-kind implementation behind the interface: its
// apply methods forward to the ingest column, which is what their names
// promise, so they are exempt from the inverse rule.
type joinColumn struct{ *ingest.Column }

func (c joinColumn) enqueuePooled(reports [][]byte) error { return c.EnqueueAllPooled(reports) }
func (c joinColumn) merge(blob []byte) error              { return c.MergeAggregator(blob) }
