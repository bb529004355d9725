package service

import (
	"bufio"
	"net/http"

	"ldpjoin/internal/core"
	"ldpjoin/internal/ingest"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/store"
)

// The join kind: single-attribute LDPJoinSketch columns (Alg. 2) fed by
// KindJoin streams, one per attribute slot.

type joinKind struct{}

type joinBatches = reportBatches[core.Report]

func (joinKind) checkAttr(s *Server, attr int) error { return s.spanInRange(attr, 1) }

func (joinKind) decodeReports(s *Server, name string, body *bufio.Reader, h protocol.Header) (batchSet, error) {
	br, err := protocol.NewBatchReaderFrom(body, h, s.params)
	if err != nil {
		return nil, statusError(http.StatusBadRequest, "decoding report stream: %v", err)
	}
	return readAllBatches(s, name, br.Next, br.Count)
}

func (joinKind) newColumn(s *Server, attr int) column {
	return joinColumn{s.engine.NewColumnWithFamily(s.fams[attr])}
}

func (joinKind) snapshotBound(s *Server) int { return protocol.SnapshotEncodedSize(s.params) }

func (joinKind) slot(s *Server, snap protocol.ColumnSnapshot) (int, error) { return s.slotOf(snap) }

func (joinKind) restore(snap protocol.ColumnSnapshot) (*finishedColumn, error) {
	sk, err := snap.(*protocol.Snapshot).Sketch()
	if err != nil {
		return nil, err
	}
	return &finishedColumn{kind: protocol.KindJoin, join: sk}, nil
}

// joinColumn adapts an ingest.Column to the mutating path.
type joinColumn struct{ *ingest.Column }

func (c joinColumn) admit(b batchSet) error { return fits(c, int64(b.count())) }

func (joinColumn) appendReports(st *store.Store, name string, attr int, b batchSet) error {
	return st.AppendReports(name, attr, b.(joinBatches).batches)
}

func (c joinColumn) enqueuePooled(b batchSet) error {
	return c.EnqueueAllPooled(b.(joinBatches).batches)
}

func (c joinColumn) capture() (protocol.ColumnSnapshot, error) { return c.Capture() }

func (c joinColumn) finalize() (*finishedColumn, error) {
	sk, err := c.Finalize()
	if err != nil {
		return nil, err
	}
	return &finishedColumn{kind: protocol.KindJoin, join: sk}, nil
}

func (c joinColumn) prepareMerge(snap protocol.ColumnSnapshot) (any, *advanceRequest, error) {
	agg, err := snap.(*protocol.Snapshot).Aggregator()
	if err != nil {
		return nil, nil, err
	}
	return agg, nil, fits(c, int64(agg.N()))
}

func (c joinColumn) merge(m any) error { return c.MergeAggregator(m.(*core.Aggregator)) }
