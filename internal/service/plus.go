package service

import (
	"bufio"
	"errors"
	"net/http"

	"ldpjoin/internal/core"
	"ldpjoin/internal/ingest"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/store"
)

// The plus kind: two-phase LDPJoinSketch+ columns (§V) fed by KindPlus
// streams — a phase-1 sample window, then after /advance the low and
// high FAP group sketches. It is the one kind with a phase gate.

type plusKind struct{}

// plusBatches is a plus stream's reports plus the phase group its
// header names.
type plusBatches struct {
	reportBatches[core.Report]
	g protocol.PlusGroup
}

func (b plusBatches) group() string { return b.g.String() }

func (plusKind) checkAttr(_ *Server, attr int) error {
	if attr != 0 {
		return errors.New("plus columns are pinned to attribute 0: their sample and group families derive from the base seed")
	}
	return nil
}

func (plusKind) decodeReports(s *Server, name string, body *bufio.Reader, h protocol.Header) (batchSet, error) {
	br, group, err := protocol.NewPlusBatchReaderFrom(body, h, s.params)
	if err != nil {
		return nil, statusError(http.StatusBadRequest, "decoding plus report stream: %v", err)
	}
	b, err := readAllBatches(s, name, br.Next, br.Count)
	return plusBatches{b, group}, err
}

func (plusKind) newColumn(s *Server, _ int) column {
	return plusColumn{s.engine.NewPlusColumn(s.famPlusSample, s.famPlusGroup)}
}

func (plusKind) snapshotBound(s *Server) int { return protocol.PlusSnapshotMaxEncodedSize(s.params) }

func (plusKind) slot(s *Server, snap protocol.ColumnSnapshot) (int, error) {
	return 0, snap.CompatibleWithSlot(s.params, s.seed, 0)
}

func (plusKind) restore(snap protocol.ColumnSnapshot) (*finishedColumn, error) {
	state, err := snap.(*protocol.PlusSnapshot).PlusState()
	if err != nil {
		return nil, err
	}
	return &finishedColumn{kind: protocol.KindPlus, plus: state}, nil
}

// plusColumn adapts an ingest.PlusColumn to the mutating path.
type plusColumn struct{ *ingest.PlusColumn }

// admit refuses sample reports after the advance and group reports
// before it, and reports past the column's count limit. The caller holds
// opMu, so the answer still holds when the batch reaches the WAL.
func (c plusColumn) admit(b batchSet) error {
	if err := c.CheckGroup(b.(plusBatches).g); err != nil {
		return err
	}
	return fits(c, int64(b.count()))
}

func (plusColumn) appendReports(st *store.Store, name string, attr int, b batchSet) error {
	pb := b.(plusBatches)
	return st.AppendPlusReports(name, attr, pb.g, pb.batches)
}

func (c plusColumn) enqueuePooled(b batchSet) error {
	pb := b.(plusBatches)
	return c.EnqueueAllPooled(pb.g, pb.batches)
}

func (c plusColumn) capture() (protocol.ColumnSnapshot, error) { return c.State() }

func (c plusColumn) drain() (protocol.ColumnSnapshot, error) { return c.Snapshot() }

func (c plusColumn) finalize() (*finishedColumn, error) {
	state, err := c.Finalize()
	if err != nil {
		return nil, err
	}
	return &finishedColumn{kind: protocol.KindPlus, plus: state}, nil
}

// prepareMerge places the snapshot's phase against the column's
// (PlusColumn.CheckMerge): one that advanced while the column has not is
// adopted — the column follows its frozen (domain, θ, FI) first.
func (c plusColumn) prepareMerge(snap protocol.ColumnSnapshot) (any, *advanceRequest, error) {
	ps := snap.(*protocol.PlusSnapshot)
	adopt, err := c.CheckMerge(ps)
	if err == nil {
		err = fits(c, int64(ps.N()))
	}
	if err != nil || !adopt {
		return ps, nil, err
	}
	return ps, &advanceRequest{Domain: ps.Domain, Theta: ps.Theta, FI: explicitFI(ps.FI)}, nil
}

func (c plusColumn) merge(m any) error { return c.MergePlus(m.(*protocol.PlusSnapshot)) }

// explicitFI normalizes a decoded FI slice for PlusColumn.Advance,
// where nil means "compute from the sample": a persisted or imported
// empty set must stay explicit, never trigger recomputation.
func explicitFI(fi []uint64) []uint64 {
	if fi == nil {
		return []uint64{}
	}
	return fi
}
