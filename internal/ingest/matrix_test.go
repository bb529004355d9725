package ingest

import (
	"math/rand"
	"reflect"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

func matrixTestSetup() (core.MatrixParams, *hashing.Family, *hashing.Family) {
	p := core.MatrixParams{K: 5, M1: 64, M2: 32, Epsilon: 4}
	return p, hashing.NewFamily(7, p.K, p.M1), hashing.NewFamily(8, p.K, p.M2)
}

func matrixReports(p core.MatrixParams, famA, famB *hashing.Family, seed int64, n int) []core.MatrixReport {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.MatrixReport, n)
	for i := range out {
		out[i] = core.PerturbTuple(rng.Uint64()%300, rng.Uint64()%300, p, famA, famB, rng)
	}
	return out
}

// TestMatrixColumnByteIdentical: a matrix column fed the reports in
// batches finalizes to the exact sketch a sequential aggregator builds
// from the same reports, whatever the batch size.
func TestMatrixColumnByteIdentical(t *testing.T) {
	p, famA, famB := matrixTestSetup()
	reports := matrixReports(p, famA, famB, 1, 10_000)

	ref := core.NewMatrixAggregator(p, famA, famB)
	for _, r := range reports {
		ref.Add(r)
	}
	want := ref.Finalize()

	e := NewEngine(core.Params{K: p.K, M: p.M1, Epsilon: p.Epsilon}, famA, Options{})
	for _, size := range []int{len(reports), 777, 13} {
		col := e.NewMatrixColumn(p, famA, famB)
		var batches [][]core.MatrixReport
		for off := 0; off < len(reports); off += size {
			batches = append(batches, reports[off:min(off+size, len(reports))])
		}
		if err := enqueue(col, batches...); err != nil {
			t.Fatal(err)
		}
		if got := col.N(); got != int64(len(reports)) {
			t.Fatalf("N = %d, want %d", got, len(reports))
		}
		got, err := col.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Runs(), want.Runs()) {
			t.Fatalf("batches of %d: counts differ from sequential build", size)
		}
	}
}

// TestMatrixColumnLifecycle pins the drain semantics: Enqueue, State,
// and a second drain all fail with ErrFinalized after Finalize/Snapshot.
func TestMatrixColumnLifecycle(t *testing.T) {
	p, famA, famB := matrixTestSetup()
	e := NewEngine(core.Params{K: p.K, M: p.M1, Epsilon: p.Epsilon}, famA, Options{})
	col := e.NewMatrixColumn(p, famA, famB)
	if err := enqueue(col, matrixReports(p, famA, famB, 2, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := col.State(); err != nil {
		t.Fatalf("State on a collecting column: %v", err)
	}
	if _, err := col.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := enqueue(col, matrixReports(p, famA, famB, 3, 1)); err != ErrFinalized {
		t.Fatalf("Enqueue after Finalize: %v, want ErrFinalized", err)
	}
	if _, err := col.State(); err != ErrFinalized {
		t.Fatalf("State after Finalize: %v, want ErrFinalized", err)
	}
	if _, err := col.Snapshot(); err != ErrFinalized {
		t.Fatalf("second drain: %v, want ErrFinalized", err)
	}

	// An out-of-bounds report fails its enqueue and then Finalize, never
	// becoming a sketch.
	bad := e.NewMatrixColumn(p, famA, famB)
	if err := enqueue(bad, []core.MatrixReport{{Y: 1, Row: uint32(p.K), L1: 0, L2: 0}}); err == nil {
		t.Fatal("out-of-bounds report did not fail its enqueue")
	}
	if _, err := bad.Finalize(); err == nil {
		t.Fatal("out-of-bounds report did not fail Finalize")
	}
}

// TestMatrixColumnFederation: two columns each fold half the reports,
// one drains into a snapshot that merges into the other via
// MergeAggregator — finalizing to the same cells as one column folding
// everything, exercising the snapshot round trip on the way.
func TestMatrixColumnFederation(t *testing.T) {
	p, famA, famB := matrixTestSetup()
	e := NewEngine(core.Params{K: p.K, M: p.M1, Epsilon: p.Epsilon}, famA, Options{})
	newCol := func() *MatrixColumn { return e.NewMatrixColumn(p, famA, famB) }

	half1 := matrixReports(p, famA, famB, 4, 4000)
	half2 := matrixReports(p, famA, famB, 5, 3000)

	all := newCol()
	if err := enqueue(all, half1, half2); err != nil {
		t.Fatal(err)
	}
	want, err := all.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	remote := newCol()
	local := newCol()
	if err := enqueue(remote, half1); err != nil {
		t.Fatal(err)
	}
	if err := enqueue(local, half2); err != nil {
		t.Fatal(err)
	}
	snap, err := remote.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := protocol.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := protocol.DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := decoded.MatrixAggregator()
	if err != nil {
		t.Fatal(err)
	}
	if err := local.MergeAggregator(agg); err != nil {
		t.Fatal(err)
	}
	got, err := local.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() {
		t.Fatalf("federated N = %g, want %g", got.N(), want.N())
	}
	if !reflect.DeepEqual(got.Runs(), want.Runs()) {
		t.Fatal("federated sketch differs from single-column fold")
	}

	// Mismatched families are refused.
	foreignB := hashing.NewFamily(99, p.K, p.M2)
	foreign := core.NewMatrixAggregator(p, famA, foreignB)
	victim := newCol()
	if err := victim.MergeAggregator(foreign); err == nil {
		t.Fatal("family-mismatched merge accepted")
	}
}
