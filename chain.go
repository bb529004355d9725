package ldpjoin

import (
	"fmt"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// ChainProtocol estimates chain (multi-way) joins of the form
//
//	T_0(A_0) ⋈ T_1(A_0, A_1) ⋈ ... ⋈ T_{n-1}(A_{n-2}, A_{n-1}) ⋈ T_n(A_{n-1})
//
// under LDP, per §VI of the paper. Each join attribute A_i gets its own
// public hash family; the two end tables use plain LDPJoinSketch and each
// middle table a doubly Hadamard-encoded matrix sketch.
type ChainProtocol struct {
	cfg   Config
	endP  core.Params
	midP  core.MatrixParams
	fams  []*hashing.Family
	attrs int
}

// NewChainProtocol creates the protocol for a chain with the given number
// of join attributes (a 3-way chain has 2, a 4-way chain 3; at least 2).
func NewChainProtocol(cfg Config, attrs int) (*ChainProtocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	if attrs < 2 {
		return nil, fmt.Errorf("ldpjoin: a chain needs at least 2 join attributes, got %d", attrs)
	}
	endP := cfg.params()
	fams := make([]*hashing.Family, attrs)
	for i := range fams {
		fams[i] = hashing.NewFamily(hashing.AttributeSeed(cfg.Seed, i), cfg.K, cfg.M)
	}
	return &ChainProtocol{
		cfg:   cfg,
		endP:  endP,
		midP:  core.MatrixParams{K: cfg.K, M1: cfg.M, M2: cfg.M, Epsilon: cfg.Epsilon},
		fams:  fams,
		attrs: attrs,
	}, nil
}

// Attributes returns the number of join attributes.
func (cp *ChainProtocol) Attributes() int { return cp.attrs }

// BuildEnd sketches a single-attribute end table over join attribute
// attr (0 for the leftmost, Attributes()-1 for the rightmost).
func (cp *ChainProtocol) BuildEnd(attr int, values []uint64, seed int64) (*Sketch, error) {
	if attr != 0 && attr != cp.attrs-1 {
		return nil, fmt.Errorf("ldpjoin: end tables join on the first or last attribute, got %d", attr)
	}
	return &Sketch{sk: core.Collect(cp.endP, cp.fams[attr], values, seed, buildShards)}, nil
}

// MatrixSketch is a finalized middle-table sketch.
type MatrixSketch struct {
	ms *core.MatrixSketch
}

// N returns the number of tuples summarized.
func (m *MatrixSketch) N() float64 { return m.ms.N() }

// Merge adds other's report counts into m: the middle-table
// counterpart of Sketch.Merge. A finalized matrix sketch is its integer
// counts, so the merge is exact — identical to a sketch built over both
// tables' tuples. Both sketches must come from the same chain protocol
// position — equal matrix parameters and attribute families — and hold
// at most 2³¹−1 tuples together.
func (m *MatrixSketch) Merge(other *MatrixSketch) error {
	if !m.ms.Compatible(other.ms) {
		return fmt.Errorf("ldpjoin: matrix sketches are not combinable (params %+v/seeds %d,%d vs params %+v/seeds %d,%d)",
			m.ms.Params(), m.ms.FamilyA().Seed(), m.ms.FamilyB().Seed(),
			other.ms.Params(), other.ms.FamilyA().Seed(), other.ms.FamilyB().Seed())
	}
	if m.ms.N()+other.ms.N() > core.MaxReports {
		return fmt.Errorf("ldpjoin: merged matrix sketch would summarize %v tuples, beyond its %d-tuple limit", m.ms.N()+other.ms.N(), core.MaxReports)
	}
	m.ms.Merge(other.ms)
	return nil
}

// Snapshot exports the finalized matrix sketch as a SNAP snapshot.
func (m *MatrixSketch) Snapshot() ([]byte, error) {
	return protocol.EncodeSnapshot(protocol.SnapshotOfMatrixSketch(m.ms))
}

// ImportMatrixSnapshot decodes a finalized matrix snapshot into a
// middle-table sketch for the chain position joining leftAttr to
// leftAttr+1, verifying the snapshot's configuration fingerprint
// against that position's parameters and attribute-family seeds.
func (cp *ChainProtocol) ImportMatrixSnapshot(leftAttr int, data []byte) (*MatrixSketch, error) {
	if leftAttr < 0 || leftAttr+1 >= cp.attrs {
		return nil, fmt.Errorf("ldpjoin: middle table attribute %d out of range", leftAttr)
	}
	snap, err := protocol.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	famA, famB := cp.fams[leftAttr], cp.fams[leftAttr+1]
	if err := snap.CompatibleWithMatrix(cp.midP, famA.Seed(), famB.Seed()); err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	if !snap.Finalized {
		return nil, fmt.Errorf("ldpjoin: matrix snapshot is unfinalized")
	}
	ms, err := core.RestoreMatrixSketch(cp.midP, famA, famB, snap.Runs, snap.N)
	if err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	return &MatrixSketch{ms: ms}, nil
}

// BuildMid sketches the middle table joining attribute leftAttr (its A
// column) to leftAttr+1 (its B column).
func (cp *ChainProtocol) BuildMid(leftAttr int, a, b []uint64, seed int64) (*MatrixSketch, error) {
	if leftAttr < 0 || leftAttr+1 >= cp.attrs {
		return nil, fmt.Errorf("ldpjoin: middle table attribute %d out of range", leftAttr)
	}
	if len(a) != len(b) {
		return nil, fmt.Errorf("ldpjoin: middle table columns of unequal length %d and %d", len(a), len(b))
	}
	ms := core.CollectMatrix(cp.midP, cp.fams[leftAttr], cp.fams[leftAttr+1], a, b, seed, buildShards)
	return &MatrixSketch{ms: ms}, nil
}

// Estimate computes the chain join size from the end sketches and the
// middle sketches in chain order (Eq 27 generalized; median over the k
// replicas). len(mids) must equal Attributes()-1.
func (cp *ChainProtocol) Estimate(left *Sketch, mids []*MatrixSketch, right *Sketch) (float64, error) {
	if len(mids) != cp.attrs-1 {
		return 0, fmt.Errorf("ldpjoin: chain with %d attributes needs %d middle tables, got %d",
			cp.attrs, cp.attrs-1, len(mids))
	}
	cms := make([]*core.MatrixSketch, len(mids))
	for i, m := range mids {
		cms[i] = m.ms
	}
	return core.ChainEstimate(left.sk, cms, right.sk), nil
}
