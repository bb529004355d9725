// Package service exercises the walorder analyzer: in mutating
// handlers, the store WAL append must dominate the ingest apply/ack on
// every control-flow path.
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
// without a durable store have nothing to append to.
func (s *server) handleReports(reports [][]byte) error {
	if s.st != nil {
		if err := s.st.AppendReports("col", reports); err != nil {
			return err
		}
	}
	return s.col.EnqueueAll(reports)
}

// No append at all before the apply.
func (s *server) handleReportsVolatile(reports [][]byte) error {
	return s.col.EnqueueAll(reports) // want `ingest s\.col\.EnqueueAll is not dominated by a store WAL append`
}

// The PR 7 bug shape: apply first, append after — a crash between the
// two acks data the WAL never saw.
func (s *server) handleApplyThenAppend(reports [][]byte) error {
	if err := s.col.EnqueueAll(reports); err != nil { // want `ingest s\.col\.EnqueueAll is not dominated by a store WAL append`
		return err
	}
	return s.st.AppendReports("col", reports)
}

// An append on only one branch does not dominate: the else arm reaches
// the apply without durability. (A plain condition is not the
// in-memory-mode exemption; only a nil check on the store qualifies.)
func (s *server) handleBranchyAppend(reports [][]byte, durable bool) error {
	if durable {
		if err := s.st.AppendReports("col", reports); err != nil {
			return err
		}
	}
	return s.col.EnqueueAll(reports) // want `ingest s\.col\.EnqueueAll is not dominated by a store WAL append`
}

// Appending on both arms of a branch does dominate.
func (s *server) handleEitherAppend(reports [][]byte, matrix bool) error {
	if matrix {
		if err := s.st.AppendMatrixReports("col", reports); err != nil {
			return err
		}
	} else {
		if err := s.st.AppendReports("col", reports); err != nil {
			return err
		}
	}
	return s.col.EnqueueAll(reports)
}

// Advance is an apply too, and AppendPlusAdvance is its append.
func (s *server) handleAdvance(round uint64) error {
	if s.st != nil {
		if err := s.st.AppendPlusAdvance("col", round); err != nil {
			return err
		}
	}
	return s.col.Advance(round)
}

func (s *server) handleAdvanceVolatile(round uint64) error {
	return s.col.Advance(round) // want `ingest s\.col\.Advance is not dominated by a store WAL append`
}

// Merges follow the same contract.
func (s *server) handleMerge(blob []byte) error {
	if s.st != nil {
		if err := s.st.AppendMerge("col", blob); err != nil {
			return err
		}
	}
	return s.col.MergeAggregator(blob)
}

func (s *server) handleMergeVolatile(blob []byte) error {
	return s.col.MergePlus(blob) // want `ingest s\.col\.MergePlus is not dominated by a store WAL append`
}

// Read-only ingest calls are not applies; handlers that only inspect
// state owe the WAL nothing.
func (s *server) handleStats() int {
	return s.col.Len()
}

// Only handle* functions are in scope: recovery replays the WAL into
// the column, so the apply IS the append's consequence.
func (s *server) replayRecovered(reports [][]byte) error {
	return s.col.EnqueueAll(reports)
}

// A waived apply documents why the contract does not hold here.
func (s *server) handleShadowApply(reports [][]byte) error {
	//ldpjoinvet:ignore walorder shadow column for A/B accuracy, never acked to clients
	return s.col.EnqueueAll(reports)
}

// column is the unified handlers' shape: the service package's own
// per-kind interface stands between the handler and both the store
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
func (s *unified) handleReports(reports [][]byte) error {
	if s.st != nil {
		if err := s.col.appendReports(s.st, "col", reports); err != nil {
			return err
		}
	}
	return s.col.enqueuePooled(reports)
}

// Apply-before-append through the interface is the same bug.
func (s *unified) handleApplyThenAppend(reports [][]byte) error {
	if err := s.col.enqueuePooled(reports); err != nil { // want `ingest s\.col\.enqueuePooled is not dominated by a store WAL append`
		return err
	}
	return s.col.appendReports(s.st, "col", reports)
}

// A merge is an apply; the store's AppendMerge is still its append.
func (s *unified) handleMerge(blob []byte) error {
	if s.st != nil {
		if err := s.st.AppendMerge("col", blob); err != nil {
			return err
		}
	}
	return s.col.merge(blob)
}

func (s *unified) handleMergeVolatile(blob []byte) error {
	return s.col.merge(blob) // want `ingest s\.col\.merge is not dominated by a store WAL append`
}

// Reading through the interface owes the WAL nothing.
func (s *unified) handleStatus() int {
	return s.col.n()
}
