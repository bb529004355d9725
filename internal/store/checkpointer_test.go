package store

import (
	"slices"
	"testing"
	"time"

	"ldpjoin/internal/core"
)

// appendBytes is the framed WAL size of appending n reports to a fresh
// column, measured on a throwaway store.
func appendBytes(t *testing.T, n int) int64 {
	t.Helper()
	st := open(t, t.TempDir(), Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReports("probe", 0, [][]core.Report{testReports(1, n)}); err != nil {
		t.Fatal(err)
	}
	return st.Stats().Bytes
}

// TestStartCheckpointerNeedsBytes: with no CheckpointBytes bound there
// is no background checkpointer at all, and Stop on the nil result is a
// no-op.
func TestStartCheckpointerNeedsBytes(t *testing.T) {
	for _, bytes := range []int64{0, -1} {
		st := open(t, t.TempDir(), Options{CheckpointBytes: bytes, CheckpointTick: time.Millisecond})
		if _, err := st.Recover(newReplayLog()); err != nil {
			t.Fatal(err)
		}
		c := st.StartCheckpointer(func(string) error { return nil })
		if c != nil {
			t.Fatalf("CheckpointBytes %d: StartCheckpointer = %v, want nil", bytes, c)
		}
		c.Stop()
	}
}

// TestCheckpointCandidatesBytesBound: a collecting column is due once
// its un-checkpointed WAL bytes reach CheckpointBytes — not a byte
// before — and a finalized column is never due, even when an append
// racing the finalize recreates its tracker afterwards.
func TestCheckpointCandidatesBytesBound(t *testing.T) {
	const n = 100
	bound := appendBytes(t, n)
	st := open(t, t.TempDir(), Options{CheckpointBytes: bound})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	for name, count := range map[string]int{"below": n - 1, "at": n, "over": n + 1, "fin": 2 * n} {
		if err := st.AppendReports(name, 0, [][]core.Report{testReports(1, count)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Finalize("fin", 0, testFinalSnapshot(1, 2*n)); err != nil {
		t.Fatal(err)
	}
	st.noteAppend("fin", 2*bound)

	due := st.checkpointCandidates()
	slices.Sort(due)
	if want := []string{"at", "over"}; !slices.Equal(due, want) {
		t.Fatalf("due = %v at a %d-byte bound, want %v", due, bound, want)
	}
}

// TestBackgroundSaveKeepsAppendsPastTheCut: appends that land between
// Rotate and SaveCheckpoint belong to the next checkpoint, so the save
// subtracts only the bytes the cut covered from the pending count.
func TestBackgroundSaveKeepsAppendsPastTheCut(t *testing.T) {
	const n = 100
	bound := appendBytes(t, n)
	st := open(t, t.TempDir(), Options{CheckpointBytes: bound})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReports("a", 0, [][]core.Report{testReports(1, n)}); err != nil {
		t.Fatal(err)
	}
	covered, err := st.Rotate("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReports("a", 0, [][]core.Report{testReports(2, n/2)}); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	past := before.PendingWALBytes - bound
	if past <= 0 {
		t.Fatalf("pending %d bytes after two appends, want more than the %d-byte cut", before.PendingWALBytes, bound)
	}
	if err := st.SaveCheckpoint("a", covered, testSnapshot(t, 1, n)); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.PendingWALBytes != past || after.BackgroundCheckpoints != 1 {
		t.Fatalf("after the save: pending %d bytes, %d background checkpoints; want %d and 1",
			after.PendingWALBytes, after.BackgroundCheckpoints, past)
	}
	if due := st.checkpointCandidates(); len(due) != 0 {
		t.Fatalf("due = %v with %d bytes past the cut, below the %d-byte bound", due, past, bound)
	}
}
