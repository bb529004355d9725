package ldpjoin

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"ldpjoin/internal/protocol"
)

// TestFacadeSnapshotFederation: two facade aggregators on different
// "nodes" export snapshots; importing and merging them reproduces a
// single aggregator over the union, byte for byte.
func TestFacadeSnapshotFederation(t *testing.T) {
	cfg := Config{K: 6, M: 256, Epsilon: 4, Seed: 3}
	proto, err := NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}

	colA := make([]uint64, 3000)
	colB := make([]uint64, 2000)
	for i := range colA {
		colA[i] = uint64(i % 40)
	}
	for i := range colB {
		colB[i] = uint64(i % 25)
	}

	// Node 1 and node 2 each aggregate one part.
	agg1 := proto.NewAggregator()
	agg1.AddColumn(colA, 31)
	agg2 := proto.NewAggregator()
	agg2.AddColumn(colB, 32)

	snap1, err := agg1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := agg2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The federator imports and merges.
	imp1, err := proto.ImportSnapshot(snap1)
	if err != nil {
		t.Fatal(err)
	}
	imp2, err := proto.ImportSnapshot(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if err := imp1.Merge(imp2); err != nil {
		t.Fatal(err)
	}
	if imp1.N() != float64(len(colA)+len(colB)) {
		t.Fatalf("merged N = %v, want %d", imp1.N(), len(colA)+len(colB))
	}
	fed := imp1.Sketch()

	// Single-node reference: same client seeds, one aggregator.
	single := proto.NewAggregator()
	single.AddColumn(colA, 31)
	single.AddColumn(colB, 32)
	ref := single.Sketch()

	fedBytes, _ := fed.MarshalBinary()
	refBytes, _ := ref.MarshalBinary()
	if !bytes.Equal(fedBytes, refBytes) {
		t.Fatal("federated sketch differs from single-node sketch")
	}
}

func TestFacadeSnapshotRejections(t *testing.T) {
	proto, err := NewProtocol(Config{K: 6, M: 256, Epsilon: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewProtocol(Config{K: 6, M: 256, Epsilon: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	agg := other.NewAggregator()
	agg.AddColumn([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1)
	snap, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Wrong protocol (different seed) refuses the import.
	if _, err := proto.ImportSnapshot(snap); !errors.Is(err, protocol.ErrSnapshotMismatch) {
		t.Fatalf("cross-seed import: got %v, want ErrSnapshotMismatch", err)
	}
	// Corruption refuses the import.
	mut := append([]byte(nil), snap...)
	mut[len(mut)/2] ^= 1
	if _, err := other.ImportSnapshot(mut); !errors.Is(err, protocol.ErrBadSnapshot) {
		t.Fatalf("corrupt import: got %v, want ErrBadSnapshot", err)
	}
	// A finalized aggregator cannot snapshot or merge.
	agg.Sketch()
	if _, err := agg.Snapshot(); err == nil {
		t.Fatal("snapshot of finalized aggregator accepted")
	}
}

func TestFacadeImportFinalized(t *testing.T) {
	proto, err := NewProtocol(Config{K: 6, M: 256, Epsilon: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]uint64, 2000)
	for i := range values {
		values[i] = uint64(i % 30)
	}
	sk := proto.BuildSketch(values, 9)
	snap, err := sk.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	imp, err := proto.ImportFinalized(snap)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sk.MarshalBinary()
	b, _ := imp.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("imported finalized sketch differs from the original")
	}
	// Form mismatches route to the other import.
	if _, err := proto.ImportSnapshot(snap); err == nil {
		t.Fatal("finalized snapshot accepted by ImportSnapshot")
	}
	agg := proto.NewAggregator()
	agg.AddColumn(values[:100], 1)
	unfin, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.ImportFinalized(unfin); err == nil {
		t.Fatal("unfinalized snapshot accepted by ImportFinalized")
	}
}

// TestSketchMergeLinear: merging finalized sketches sums populations and
// keeps JoinSize consistent with a jointly built sketch (not bit-exact —
// that is the unfinalized path's guarantee — but numerically equal up to
// float reassociation, which for a join estimate in the thousands means
// agreement to within a relative 1e-9).
func TestSketchMergeLinear(t *testing.T) {
	proto, err := NewProtocol(Config{K: 6, M: 256, Epsilon: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	colA := make([]uint64, 3000)
	colB := make([]uint64, 2000)
	for i := range colA {
		colA[i] = uint64(i % 40)
	}
	for i := range colB {
		colB[i] = uint64(i % 25)
	}
	probe := proto.BuildSketch(colA, 77)

	agg1 := proto.NewAggregator()
	agg1.AddColumn(colA, 41)
	agg2 := proto.NewAggregator()
	agg2.AddColumn(colB, 42)
	sk1, sk2 := agg1.Sketch(), agg2.Sketch()

	joint := proto.NewAggregator()
	joint.AddColumn(colA, 41)
	joint.AddColumn(colB, 42)
	ref := joint.Sketch()

	if err := sk1.Merge(sk2); err != nil {
		t.Fatal(err)
	}
	if sk1.N() != ref.N() {
		t.Fatalf("merged N = %v, want %v", sk1.N(), ref.N())
	}
	got, err := sk1.JoinSize(probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.JoinSize(probe)
	if err != nil {
		t.Fatal(err)
	}
	if tol := 1e-9*math.Abs(want) + 1e-6; math.Abs(got-want) > tol {
		t.Fatalf("merged JoinSize %v vs joint %v", got, want)
	}

	// Incompatible merges refuse.
	foreign, err := NewProtocol(Config{K: 6, M: 256, Epsilon: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := sk1.Merge(foreign.BuildSketch(colB, 1)); err == nil {
		t.Fatal("cross-seed sketch merge accepted")
	}
}

// TestMatrixSketchMerge: the middle-table counterpart — two half-table
// sketches merged estimate the same chain as a jointly built one.
func TestMatrixSketchMerge(t *testing.T) {
	cfg := Config{K: 6, M: 128, Epsilon: 4, Seed: 5}
	cp, err := NewChainProtocol(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 2000
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i % 20)
		b[i] = uint64(i % 15)
	}
	m1, err := cp.BuildMid(0, a[:n/2], b[:n/2], 61)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cp.BuildMid(0, a[n/2:], b[n/2:], 62)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Merge(m2); err != nil {
		t.Fatal(err)
	}
	if m1.N() != float64(n) {
		t.Fatalf("merged matrix N = %v, want %d", m1.N(), n)
	}

	// Snapshot round trip for the merged middle table.
	snap, err := m1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	imp, err := cp.ImportMatrixSnapshot(0, snap)
	if err != nil {
		t.Fatal(err)
	}
	if imp.N() != m1.N() {
		t.Fatalf("imported matrix N = %v, want %v", imp.N(), m1.N())
	}
	// And the imported sketch estimates with the chain protocol.
	left, err := cp.BuildEnd(0, a, 63)
	if err != nil {
		t.Fatal(err)
	}
	right, err := cp.BuildEnd(1, b, 64)
	if err != nil {
		t.Fatal(err)
	}
	est1, err := cp.Estimate(left, []*MatrixSketch{m1}, right)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := cp.Estimate(left, []*MatrixSketch{imp}, right)
	if err != nil {
		t.Fatal(err)
	}
	if est1 != est2 {
		t.Fatalf("imported matrix sketch estimates %v, original %v", est2, est1)
	}

	// Mismatched chain positions refuse the import.
	if _, err := cp.ImportMatrixSnapshot(5, snap); err == nil {
		t.Fatal("out-of-range chain position accepted")
	}
}
