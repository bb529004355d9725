package service

import (
	"bufio"
	"net/http"

	"ldpjoin/internal/core"
	"ldpjoin/internal/ingest"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/store"
)

// The matrix kind: two-attribute middle-table columns (§VI) fed by
// KindMatrix streams, spanning attribute slots (attr, attr+1).

type matrixKind struct{}

type matrixBatches = reportBatches[core.MatrixReport]

// checkAttr also refuses matrix columns outright under a width whose
// M×M cells a uint32 cannot index (M > 65536).
func (matrixKind) checkAttr(s *Server, attr int) error {
	if err := s.matrixP.Validate(); err != nil {
		return err
	}
	return s.spanInRange(attr, 2)
}

func (matrixKind) decodeReports(s *Server, name string, body *bufio.Reader, h protocol.Header) (batchSet, error) {
	br, err := protocol.NewMatrixBatchReaderFrom(body, h, s.matrixP)
	if err != nil {
		return nil, statusError(http.StatusBadRequest, "decoding matrix report stream: %v", err)
	}
	return readAllBatches(s, name, br.Next, br.Count)
}

func (matrixKind) newColumn(s *Server, attr int) column {
	return matrixColumn{s.engine.NewMatrixColumn(s.matrixP, s.fams[attr], s.fams[attr+1])}
}

// A matrix snapshot holds up to K·M² count entries: ~1000× a join
// snapshot at defaults when every cell is non-zero, though a column of n
// tuples encodes to at most n entries.
func (matrixKind) snapshotBound(s *Server) int { return protocol.SnapshotEncodedSizeMatrix(s.matrixP) }

func (matrixKind) slot(s *Server, snap protocol.ColumnSnapshot) (int, error) { return s.slotOf(snap) }

func (matrixKind) restore(snap protocol.ColumnSnapshot) (*finishedColumn, error) {
	ms, err := snap.(*protocol.Snapshot).MatrixSketch()
	if err != nil {
		return nil, err
	}
	return &finishedColumn{kind: protocol.KindMatrix, matrix: ms}, nil
}

// matrixColumn adapts an ingest.MatrixColumn to the mutating path.
type matrixColumn struct{ *ingest.MatrixColumn }

func (c matrixColumn) admit(b batchSet) error { return fits(c, int64(b.count())) }

func (matrixColumn) appendReports(st *store.Store, name string, attr int, b batchSet) error {
	return st.AppendMatrixReports(name, attr, b.(matrixBatches).batches)
}

func (c matrixColumn) enqueuePooled(b batchSet) error {
	return c.EnqueueAllPooled(b.(matrixBatches).batches)
}

func (c matrixColumn) capture() (protocol.ColumnSnapshot, error) { return c.Capture() }

func (c matrixColumn) drain() (protocol.ColumnSnapshot, error) { return c.Snapshot() }

func (c matrixColumn) finalize() (*finishedColumn, error) {
	ms, err := c.Finalize()
	if err != nil {
		return nil, err
	}
	return &finishedColumn{kind: protocol.KindMatrix, matrix: ms}, nil
}

func (c matrixColumn) prepareMerge(snap protocol.ColumnSnapshot) (any, *advanceRequest, error) {
	agg, err := snap.(*protocol.Snapshot).MatrixAggregator()
	if err != nil {
		return nil, nil, err
	}
	return agg, nil, fits(c, int64(agg.N()))
}

func (c matrixColumn) merge(m any) error { return c.MergeAggregator(m.(*core.MatrixAggregator)) }
