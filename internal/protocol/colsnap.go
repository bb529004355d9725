package protocol

import (
	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
)

// ColumnSnapshot is what the layers that move column state around — the
// store's checkpoints and final.snap, the service's merge and export
// routes — need of a snapshot without caring which shape it has: a
// *Snapshot (join or matrix cells) and a *PlusSnapshot (the
// sample/low/high composite) both satisfy it. Shape-specific work
// (restoring an aggregator, reading the frozen FI) still goes through
// the concrete types.
type ColumnSnapshot interface {
	// ColumnKind is the column kind whose state the snapshot carries.
	ColumnKind() Kind
	// IsFinalized reports whether the state is a finalized sketch (a
	// column's terminal form) rather than mergeable unfinalized cells.
	IsFinalized() bool
	// Reports is the number of reports the state summarizes.
	Reports() float64
	// Encode validates and encodes the snapshot in its wire form.
	Encode() ([]byte, error)
	// CompatibleWithSlot returns nil when the state was built under
	// exactly the parameters and hash families a deployment with base
	// seed seed derives for a column of this kind in attribute slot attr
	// — the precondition for restoring or merging it there.
	CompatibleWithSlot(p core.Params, seed int64, attr int) error
}

func (s *Snapshot) ColumnKind() Kind {
	if s.Kind == SnapshotMatrix {
		return KindMatrix
	}
	return KindJoin
}

func (s *Snapshot) IsFinalized() bool       { return s.Finalized }
func (s *Snapshot) Reports() float64        { return s.N }
func (s *Snapshot) Encode() ([]byte, error) { return EncodeSnapshot(s) }

// CompatibleWithSlot checks a join snapshot against attribute attr's
// family, a matrix snapshot against the K replicas of M×M cells spanning
// attributes (attr, attr+1) — the one matrix shape a deployment derives
// from its scalar parameters.
func (s *Snapshot) CompatibleWithSlot(p core.Params, seed int64, attr int) error {
	seedA := hashing.AttributeSeed(seed, attr)
	if s.Kind == SnapshotMatrix {
		mp := core.MatrixParams{K: p.K, M1: p.M, M2: p.M, Epsilon: p.Epsilon}
		return s.CompatibleWithMatrix(mp, seedA, hashing.AttributeSeed(seed, attr+1))
	}
	return s.CompatibleWithJoin(p, seedA)
}

func (s *PlusSnapshot) ColumnKind() Kind        { return KindPlus }
func (s *PlusSnapshot) IsFinalized() bool       { return s.Finalized }
func (s *PlusSnapshot) Reports() float64        { return s.N() }
func (s *PlusSnapshot) Encode() ([]byte, error) { return EncodePlusSnapshot(s) }

// CompatibleWithSlot checks every embedded phase against the sample and
// group seeds derived from attribute attr's seed.
func (s *PlusSnapshot) CompatibleWithSlot(p core.Params, seed int64, attr int) error {
	return s.CompatibleWithPlus(p, hashing.AttributeSeed(seed, attr))
}

// PeekColumnKind inspects the leading bytes (at least
// SnapshotHeaderSize of them, or the whole encoding) of an encoded
// column snapshot of either shape and returns the column kind it
// declares. Nothing is authenticated here; DecodeColumnSnapshot still
// validates the whole encoding.
func PeekColumnKind(prefix []byte) (Kind, error) {
	if IsPlusSnapshot(prefix) {
		return KindPlus, nil
	}
	kind, err := PeekSnapshotKind(prefix)
	if err != nil {
		return 0, err
	}
	if kind == SnapshotMatrix {
		return KindMatrix, nil
	}
	return KindJoin, nil
}

// DecodeColumnSnapshot decodes and validates an encoded column snapshot
// of either shape, chosen by its magic.
func DecodeColumnSnapshot(data []byte) (ColumnSnapshot, error) {
	if IsPlusSnapshot(data) {
		s, err := DecodePlusSnapshot(data)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	return s, nil
}
