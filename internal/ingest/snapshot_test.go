package ingest

import (
	"bytes"
	"sync"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/protocol"
)

// TestColumnSnapshotMatchesFinalize: draining a column into a snapshot,
// shipping it through the codec, and finalizing on the other side must
// reproduce Finalize byte-for-byte.
func TestColumnSnapshotMatchesFinalize(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(42)
	reports := perturbColumn(p, 5, dataset.Zipf(3, 20000, 2000, 1.3))

	eng := NewEngine(p, fam, Options{})
	feed := func(col *Column) {
		for lo := 0; lo < len(reports); lo += 777 {
			hi := min(lo+777, len(reports))
			if err := enqueue(col, reports[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}

	colA := eng.NewColumn()
	feed(colA)
	sk, err := colA.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, sk)

	colB := eng.NewColumn()
	feed(colB)
	snap, err := colB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Finalized {
		t.Fatal("column snapshot should be unfinalized (mergeable)")
	}
	if snap.N != float64(len(reports)) {
		t.Fatalf("snapshot N = %v, want %d", snap.N, len(reports))
	}
	data, err := protocol.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := protocol.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := decoded.Aggregator()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, agg.Finalize()), want) {
		t.Fatal("snapshot round trip does not reproduce Finalize")
	}

	// The column is spent, exactly like after Finalize.
	if _, err := colB.Snapshot(); err != ErrFinalized {
		t.Fatalf("second Snapshot: got %v, want ErrFinalized", err)
	}
	if _, err := colB.Finalize(); err != ErrFinalized {
		t.Fatalf("Finalize after Snapshot: got %v, want ErrFinalized", err)
	}
	if err := enqueue(colB, reports[:10]); err != ErrFinalized {
		t.Fatalf("Enqueue after Snapshot: got %v, want ErrFinalized", err)
	}
}

// TestColumnMergeAggregator: a column fed half a stream directly and
// half through MergeAggregator finalizes byte-identically to a column
// fed the whole stream.
func TestColumnMergeAggregator(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(42)
	reports := perturbColumn(p, 9, dataset.Zipf(4, 20000, 2000, 1.3))
	half := len(reports) / 2

	eng := NewEngine(p, fam, Options{})
	full := eng.NewColumn()
	if err := enqueue(full, reports); err != nil {
		t.Fatal(err)
	}
	sk, err := full.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, sk)

	remote := core.NewAggregator(p, fam)
	for _, r := range reports[half:] {
		remote.Add(r)
	}
	local := eng.NewColumn()
	if err := enqueue(local, reports[:half]); err != nil {
		t.Fatal(err)
	}
	if err := local.MergeAggregator(remote); err != nil {
		t.Fatal(err)
	}
	if got, wantN := local.N(), int64(len(reports)); got != wantN {
		t.Fatalf("N after merge = %d, want %d", got, wantN)
	}
	sk2, err := local.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, sk2), want) {
		t.Fatal("merge-fed column differs from stream-fed column")
	}
}

func TestColumnMergeAggregatorRejects(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(42)
	col := NewEngine(p, fam, Options{}).NewColumn()
	other := core.NewAggregator(p, p.NewFamily(43)) // wrong seed
	if err := col.MergeAggregator(other); err == nil {
		t.Fatal("merge across hash families accepted")
	}
	done := core.NewAggregator(p, fam)
	done.Finalize()
	if err := col.MergeAggregator(done); err == nil {
		t.Fatal("merge of a finalized aggregator accepted")
	}
	if _, err := col.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := col.MergeAggregator(core.NewAggregator(p, fam)); err != ErrFinalized {
		t.Fatalf("merge into finalized column: got %v, want ErrFinalized", err)
	}
}

// TestColumnState: the point-in-time export contains exactly the folded
// reports, does not consume the column, and the column keeps ingesting
// afterwards.
func TestColumnState(t *testing.T) {
	p := testParams()
	fam := p.NewFamily(42)
	reports := perturbColumn(p, 11, dataset.Zipf(5, 10000, 1000, 1.3))
	half := len(reports) / 2

	col := NewEngine(p, fam, Options{}).NewColumn()
	if err := enqueue(col, reports[:half]); err != nil {
		t.Fatal(err)
	}
	// The fold is inline, so the point-in-time copy is exactly the first
	// half.
	agg, err := col.State()
	if err != nil {
		t.Fatal(err)
	}
	if agg.N() != float64(half) {
		t.Fatalf("state N = %v, want %d", agg.N(), half)
	}

	// The column keeps going; the state copy is independent.
	if err := enqueue(col, reports[half:]); err != nil {
		t.Fatal(err)
	}
	sk, err := col.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if sk.N() != float64(len(reports)) {
		t.Fatalf("final N = %v, want %d", sk.N(), len(reports))
	}

	// The exported state matches a direct fold of the first half.
	direct := core.NewAggregator(p, fam)
	for _, r := range reports[:half] {
		direct.Add(r)
	}
	if !bytes.Equal(marshal(t, agg.Finalize()), marshal(t, direct.Finalize())) {
		t.Fatal("point-in-time state differs from direct fold of the same prefix")
	}

	if _, err := col.State(); err != ErrFinalized {
		t.Fatalf("State after Finalize: got %v, want ErrFinalized", err)
	}
}

// TestColumnStateConcurrent hammers State while folds, merges, and a
// final drain are in flight — the -race exercise for the federation
// paths. Invariant: every state copy holds a consistent (cells, n) pair
// whose finalized form matches a prefix count, and the final sketch
// still matches the sequential fold.
func TestColumnStateConcurrent(t *testing.T) {
	p := core.Params{K: 4, M: 64, Epsilon: 2}
	fam := p.NewFamily(42)
	reports := perturbColumn(p, 13, dataset.Zipf(6, 8000, 500, 1.2))

	col := NewEngine(p, fam, Options{}).NewColumn()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for lo := 0; lo < len(reports); lo += 256 {
			hi := min(lo+256, len(reports))
			if err := enqueue(col, reports[lo:hi]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			agg, err := col.State()
			if err != nil {
				return // column finalized underneath us: allowed
			}
			var abs int64
			for _, row := range agg.Rows() {
				for _, c := range row {
					abs += max(int64(c), -int64(c))
				}
			}
			if abs > int64(agg.N()) {
				t.Errorf("state counts sum to %d in magnitude, more than its %v reports", abs, agg.N())
				return
			}
		}
	}()
	wg.Wait()

	sk, err := col.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	direct := core.NewAggregator(p, fam)
	for _, r := range reports {
		direct.Add(r)
	}
	if !bytes.Equal(marshal(t, sk), marshal(t, direct.Finalize())) {
		t.Fatal("concurrent State calls perturbed the column")
	}
}
