package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

var testParams = core.Params{K: 5, M: 64, Epsilon: 4}

const testSeed = 42

// replayLog collects every Replayer callback in order for assertions.
// Recover replays distinct columns concurrently, so every callback takes
// mu.
type replayLog struct {
	mu            sync.Mutex
	finalized     map[string]*protocol.Snapshot
	checkpoints   map[string]*protocol.Snapshot
	reports       map[string][]core.Report
	matrixReports map[string][]core.MatrixReport
	merges        map[string][]*protocol.Snapshot
	infos         map[string]ColumnInfo
	plusFinalized map[string]*protocol.PlusSnapshot
	plusEvents    map[string][]plusEvent
	finalCalls    int // RecoverFinalized + RecoverPlusFinalized calls
}

// plusEvent records one plus replay callback, preserving the order the
// column's WAL replayed in — the property the phase machine depends on.
type plusEvent struct {
	kind    string // "reports", "advance", "checkpoint", "merge"
	group   protocol.PlusGroup
	reports []core.Report
	domain  uint64
	theta   float64
	fi      []uint64
	snap    *protocol.PlusSnapshot
}

func newReplayLog() *replayLog {
	return &replayLog{
		finalized:     make(map[string]*protocol.Snapshot),
		checkpoints:   make(map[string]*protocol.Snapshot),
		reports:       make(map[string][]core.Report),
		matrixReports: make(map[string][]core.MatrixReport),
		merges:        make(map[string][]*protocol.Snapshot),
		infos:         make(map[string]ColumnInfo),
		plusFinalized: make(map[string]*protocol.PlusSnapshot),
		plusEvents:    make(map[string][]plusEvent),
	}
}

func (r *replayLog) RecoverFinalized(col ColumnInfo, snap *protocol.Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.finalized[col.Name] = snap
	r.finalCalls++
	return nil
}

func (r *replayLog) RecoverCheckpoint(col ColumnInfo, snap *protocol.Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.checkpoints[col.Name] = snap
	return nil
}

func (r *replayLog) RecoverReports(col ColumnInfo, reports []core.Report) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.reports[col.Name] = append(r.reports[col.Name], reports...)
	return nil
}

func (r *replayLog) RecoverMatrixReports(col ColumnInfo, reports []core.MatrixReport) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.matrixReports[col.Name] = append(r.matrixReports[col.Name], reports...)
	return nil
}

func (r *replayLog) RecoverMerge(col ColumnInfo, snap *protocol.Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.merges[col.Name] = append(r.merges[col.Name], snap)
	return nil
}

func (r *replayLog) RecoverPlusFinalized(col ColumnInfo, snap *protocol.PlusSnapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.plusFinalized[col.Name] = snap
	r.finalCalls++
	return nil
}

func (r *replayLog) RecoverPlusCheckpoint(col ColumnInfo, snap *protocol.PlusSnapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.plusEvents[col.Name] = append(r.plusEvents[col.Name], plusEvent{kind: "checkpoint", snap: snap})
	return nil
}

func (r *replayLog) RecoverPlusReports(col ColumnInfo, group protocol.PlusGroup, reports []core.Report) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.plusEvents[col.Name] = append(r.plusEvents[col.Name], plusEvent{kind: "reports", group: group, reports: reports})
	return nil
}

func (r *replayLog) RecoverPlusAdvance(col ColumnInfo, domain uint64, theta float64, fi []uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.plusEvents[col.Name] = append(r.plusEvents[col.Name], plusEvent{kind: "advance", domain: domain, theta: theta, fi: fi})
	return nil
}

func (r *replayLog) RecoverPlusMerge(col ColumnInfo, snap *protocol.PlusSnapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[col.Name] = col
	r.plusEvents[col.Name] = append(r.plusEvents[col.Name], plusEvent{kind: "merge", snap: snap})
	return nil
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, testParams, testSeed, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func testReports(seed int64, n int) []core.Report {
	rng := rand.New(rand.NewSource(seed))
	fam := testParams.NewFamily(testSeed)
	out := make([]core.Report, n)
	for i := range out {
		out[i] = core.Perturb(rng.Uint64()%100, testParams, fam, rng)
	}
	return out
}

func testSnapshot(t *testing.T, seed int64, n int) *protocol.Snapshot {
	t.Helper()
	agg := core.NewAggregator(testParams, testParams.NewFamily(testSeed))
	for _, r := range testReports(seed, n) {
		agg.Add(r)
	}
	return protocol.SnapshotOfAggregator(agg)
}

// testFinalSnapshot is the finalized join snapshot of testReports(seed, n).
func testFinalSnapshot(seed int64, n int) *protocol.Snapshot {
	agg := core.NewAggregator(testParams, testParams.NewFamily(testSeed))
	for _, r := range testReports(seed, n) {
		agg.Add(r)
	}
	return protocol.SnapshotOfSketch(agg.Finalize())
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	repA := testReports(1, 300)
	repB := testReports(2, 100)
	if err := st.AppendReports("a", 0, [][]core.Report{repA[:120], repA[120:]}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReports("b", 0, [][]core.Report{repB}); err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t, 3, 50)
	enc, err := protocol.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendMerge("a", protocol.KindJoin, 0, enc); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Appends != 3 || s.Bytes == 0 {
		t.Fatalf("stats = %+v, want 3 appends and nonzero bytes", s)
	}
	st.Close()

	st2 := open(t, dir, Options{})
	got := newReplayLog()
	stats, err := st2.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Columns != 2 || stats.Reports != 400 || stats.Merges != 1 || stats.TruncatedTails != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	if len(got.reports["a"]) != 300 || len(got.reports["b"]) != 100 {
		t.Fatalf("replayed %d/%d reports, want 300/100", len(got.reports["a"]), len(got.reports["b"]))
	}
	for i, r := range got.reports["a"] {
		if r != repA[i] {
			t.Fatalf("report %d of a: %v, want %v", i, r, repA[i])
		}
	}
	if len(got.merges["a"]) != 1 || got.merges["a"][0].N != snap.N {
		t.Fatalf("merge replay = %+v", got.merges["a"])
	}
}

func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	rep := testReports(1, 200)
	if err := st.AppendReports("a", 0, [][]core.Report{rep[:100]}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReports("a", 0, [][]core.Report{rep[100:]}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Tear the second record: cut the segment mid-payload, as a crash
	// between write and sync would.
	seg := findOne(t, dir, segSuffix)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-37); err != nil {
		t.Fatal(err)
	}

	st2 := open(t, dir, Options{})
	got := newReplayLog()
	stats, err := st2.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedTails != 1 || len(got.reports["a"]) != 100 {
		t.Fatalf("stats = %+v, %d reports; want 1 truncated tail, 100 reports", stats, len(got.reports["a"]))
	}
	st2.Close()

	// The tear was cut, so a third recovery sees a clean log.
	st3 := open(t, dir, Options{})
	stats, err = st3.Recover(newReplayLog())
	if err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedTails != 0 || stats.Reports != 100 {
		t.Fatalf("post-truncation stats = %+v", stats)
	}
}

func TestStoreCorruptionMidLogFails(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force every append into its own segment, so damage
	// in the first one is mid-log, not a torn tail.
	st := open(t, dir, Options{SegmentBytes: 1})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := st.AppendReports("a", 0, [][]core.Report{testReports(i, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	segs := findAll(t, dir, segSuffix)
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := open(t, dir, Options{SegmentBytes: 1})
	if _, err := st2.Recover(newReplayLog()); !errors.Is(err, protocol.ErrBadRecord) {
		t.Fatalf("mid-log corruption: got %v, want ErrBadRecord", err)
	}
}

func TestStoreCheckpointCoversSegments(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	rep := testReports(1, 150)
	if err := st.AppendReports("a", 0, [][]core.Report{rep}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint("a", 0, testSnapshot(t, 1, 150)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReports("a", 0, [][]core.Report{rep}); !errors.Is(err, ErrColumnFinalized) {
		t.Fatalf("append after checkpoint: got %v, want ErrColumnFinalized", err)
	}
	if segs := findAll(t, dir, segSuffix); len(segs) != 0 {
		t.Fatalf("segments not retired by checkpoint: %v", segs)
	}
	st.Close()

	// Reopen: the checkpoint restores, then new appends land in fresh
	// segments replayed on the next recovery.
	st2 := open(t, dir, Options{})
	got := newReplayLog()
	stats, err := st2.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints != 1 || stats.Reports != 0 {
		t.Fatalf("stats = %+v, want one checkpoint and no WAL reports", stats)
	}
	if got.checkpoints["a"] == nil || got.checkpoints["a"].N != 150 {
		t.Fatalf("checkpoint replay = %+v", got.checkpoints["a"])
	}
	more := testReports(2, 60)
	if err := st2.AppendReports("a", 0, [][]core.Report{more}); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3 := open(t, dir, Options{})
	got = newReplayLog()
	stats, err = st3.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints != 1 || stats.Reports != 60 {
		t.Fatalf("checkpoint+WAL stats = %+v", stats)
	}
}

// TestStoreStaleCheckpointKeepsNewer: two background checkpoints of one
// column may finish out of order (the policy loop's run overlapping a
// direct CheckpointNow). The newer one has already deleted the segments
// it covers, so the stale one landing late must not delete it — recovery
// takes the newest checkpoint, and nothing else holds those reports.
func TestStoreStaleCheckpointKeepsNewer(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	cut := func(seed int64, n int) uint64 {
		if err := st.AppendReports("a", 0, [][]core.Report{testReports(seed, n)}); err != nil {
			t.Fatal(err)
		}
		covered, err := st.Rotate("a")
		if err != nil {
			t.Fatal(err)
		}
		return covered
	}
	older := cut(1, 100)
	newer := cut(2, 60)
	if newer <= older {
		t.Fatalf("rotation did not advance: %d then %d", older, newer)
	}
	if err := st.SaveCheckpoint("a", newer, testSnapshot(t, 3, 160)); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint("a", older, testSnapshot(t, 1, 100)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	got := newReplayLog()
	stats, err := open(t, dir, Options{}).Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if ck := got.checkpoints["a"]; stats.Checkpoints != 1 || ck == nil || ck.N != 160 {
		t.Fatalf("recovered %+v, checkpoint %v, want the newer 160-report checkpoint", stats, ck != nil && ck.N == 160)
	}
}

func TestStoreFinalizeRetiresLog(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReports("a", 0, [][]core.Report{testReports(1, 80)}); err != nil {
		t.Fatal(err)
	}
	final := testFinalSnapshot(1, 80)
	if err := st.Finalize("a", 0, final); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendReports("a", 0, [][]core.Report{testReports(2, 5)}); !errors.Is(err, ErrColumnFinalized) {
		t.Fatalf("append after finalize: got %v, want ErrColumnFinalized", err)
	}
	// The log is retired behind the finalize's return; Close waits for it.
	st.Close()
	if segs := findAll(t, dir, segSuffix); len(segs) != 0 {
		t.Fatalf("segments not retired by Close: %v", segs)
	}

	st2 := open(t, dir, Options{})
	got := newReplayLog()
	stats, err := st2.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalizedColumns != 1 || stats.Columns != 0 {
		t.Fatalf("stats = %+v, want exactly one finalized column", stats)
	}
	snap := got.finalized["a"]
	if snap == nil || !snap.Finalized || snap.N != 80 {
		t.Fatalf("finalized replay = %+v", snap)
	}
	reenc, err := protocol.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := protocol.EncodeSnapshot(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, want) {
		t.Fatal("recovered finalized snapshot is not byte-identical")
	}
}

// TestStoreFinalizeConcurrentRetiresByClose finalizes eight columns
// from eight goroutines while appends land in other columns: once Close
// returns, every finalized column's directory holds its final.snap and
// nothing else, and the collecting columns keep their segments.
func TestStoreFinalizeConcurrentRetiresByClose(t *testing.T) {
	const cols = 8
	dir := t.TempDir()
	st := open(t, dir, Options{SegmentBytes: 256, NoSync: true})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	for i := range cols {
		for j := range 3 {
			if err := st.AppendReports(fmt.Sprintf("f%d", i), 0, [][]core.Report{testReports(int64(10*i+j), 20)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*cols)
	for i := range cols {
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs <- st.Finalize(fmt.Sprintf("f%d", i), 0, testFinalSnapshot(int64(i), 60))
		}()
		go func() {
			defer wg.Done()
			for j := range 5 {
				if err := st.AppendReports(fmt.Sprintf("a%d", i%2), 0, [][]core.Report{testReports(int64(100*i+j), 20)}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ids := make(map[string]uint64)
	st.mu.Lock()
	for name, meta := range st.man.Columns {
		ids[name] = meta.ID
	}
	st.mu.Unlock()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range cols {
		if names := dirNames(t, st.colDir(ids[fmt.Sprintf("f%d", i)])); len(names) != 1 || names[0] != finalName {
			t.Fatalf("column f%d after Close holds %v, want only %s", i, names, finalName)
		}
	}
	for i := range 2 {
		if segs := findAll(t, st.colDir(ids[fmt.Sprintf("a%d", i)]), segSuffix); len(segs) == 0 {
			t.Fatalf("collecting column a%d lost its segments", i)
		}
	}
}

// TestStoreCrashAfterFinalSnap is the crash point between a finalize's
// ack (final.snap durable) and the retirement of its log: segments and
// a checkpoint still lie beside final.snap. Recovery must deliver the
// finalized state alone, refuse further appends, and delete the
// leftovers before it returns.
func TestStoreCrashAfterFinalSnap(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{SegmentBytes: 256, NoSync: true})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	appendSome := func(from int64) {
		for i := from; i < from+3; i++ {
			if err := st.AppendReports("a", 0, [][]core.Report{testReports(i, 20)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendSome(0)
	covered, err := st.Rotate("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint("a", covered, testSnapshot(t, 1, 60)); err != nil {
		t.Fatal(err)
	}
	appendSome(3)

	// What a crash right after final.snap leaves: every segment and
	// checkpoint the retirement would have deleted.
	colDir := filepath.Dir(findOne(t, dir, ckptSuffix))
	leftovers := append(findAll(t, colDir, segSuffix), findAll(t, colDir, ckptSuffix)...)
	saved := make([][]byte, len(leftovers))
	for i, path := range leftovers {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		saved[i] = data
	}
	if len(leftovers) < 2 {
		t.Fatalf("want segments and a checkpoint to put back, have %d files", len(leftovers))
	}
	if err := st.Finalize("a", 0, testFinalSnapshot(1, 120)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	for i, path := range leftovers {
		if err := os.WriteFile(path, saved[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2 := open(t, dir, Options{})
	got := newReplayLog()
	stats, err := st2.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if got.finalCalls != 1 || stats.FinalizedColumns != 1 || stats.Columns != 0 {
		t.Fatalf("recovered %+v with %d finalized deliveries, want exactly one", stats, got.finalCalls)
	}
	if stats.Reports != 0 || stats.Checkpoints != 0 || len(got.reports["a"]) != 0 || got.checkpoints["a"] != nil {
		t.Fatalf("recovered %+v: leftovers beside final.snap were replayed", stats)
	}
	if names := dirNames(t, colDir); len(names) != 1 || names[0] != finalName {
		t.Fatalf("column after recovery holds %v, want only %s", names, finalName)
	}
	if err := st2.AppendReports("a", 0, [][]core.Report{testReports(9, 5)}); !errors.Is(err, ErrColumnFinalized) {
		t.Fatalf("append after recovered finalize: got %v, want ErrColumnFinalized", err)
	}
}

// TestStoreFinalizedManifestCompat: final.snap alone marks a column
// finalized, whatever the manifest's older "finalized" key says —
// true, as earlier versions wrote it, or false, as a crash before their
// manifest write left it — and recovery rewrites no manifest.
func TestStoreFinalizedManifestCompat(t *testing.T) {
	for _, flag := range []bool{true, false} {
		t.Run(fmt.Sprintf("finalized=%v", flag), func(t *testing.T) {
			dir := t.TempDir()
			st := open(t, dir, Options{NoSync: true})
			if _, err := st.Recover(newReplayLog()); err != nil {
				t.Fatal(err)
			}
			if err := st.AppendReports("a", 0, [][]core.Report{testReports(1, 40)}); err != nil {
				t.Fatal(err)
			}
			if err := st.Finalize("a", 0, testFinalSnapshot(1, 40)); err != nil {
				t.Fatal(err)
			}
			st.Close()

			path := filepath.Join(dir, manifestName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var man map[string]any
			if err := json.Unmarshal(data, &man); err != nil {
				t.Fatal(err)
			}
			man["columns"].(map[string]any)["a"].(map[string]any)["finalized"] = flag
			if data, err = json.Marshal(man); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}

			st2 := open(t, dir, Options{})
			got := newReplayLog()
			stats, err := st2.Recover(got)
			if err != nil {
				t.Fatal(err)
			}
			if stats.FinalizedColumns != 1 || got.finalized["a"] == nil {
				t.Fatalf("recovered %+v, want column a finalized", stats)
			}
			if err := st2.AppendReports("a", 0, [][]core.Report{testReports(2, 5)}); !errors.Is(err, ErrColumnFinalized) {
				t.Fatalf("append after recovery: got %v, want ErrColumnFinalized", err)
			}
			st2.Close()
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			now, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) || !bytes.Equal(now, data) {
				t.Fatal("recovery rewrote the manifest")
			}
		})
	}
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{SegmentBytes: 256, NoSync: true})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := st.AppendReports("a", 0, [][]core.Report{testReports(i, 20)}); err != nil {
			t.Fatal(err)
		}
	}
	if segs := findAll(t, dir, segSuffix); len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", segs)
	}
	st.Close()

	st2 := open(t, dir, Options{})
	stats, err := st2.Recover(newReplayLog())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reports != 200 {
		t.Fatalf("replayed %d reports across segments, want 200", stats.Reports)
	}
}

func TestStoreFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	st.Close()
	other := testParams
	other.Epsilon = 2
	if _, err := Open(dir, other, testSeed, Options{}); err == nil || !strings.Contains(err.Error(), "written under") {
		t.Fatalf("params mismatch: got %v, want fingerprint refusal", err)
	}
	if _, err := Open(dir, testParams, testSeed+1, Options{}); err == nil {
		t.Fatal("seed mismatch was not refused")
	}
}

func TestStoreClosedRefusesWork(t *testing.T) {
	st := open(t, t.TempDir(), Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := st.AppendReports("a", 0, [][]core.Report{testReports(1, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: got %v, want ErrClosed", err)
	}
	if err := st.Checkpoint("a", 0, testSnapshot(t, 1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: got %v, want ErrClosed", err)
	}
}

func testMatrixReports(seed int64, n int) []core.MatrixReport {
	rng := rand.New(rand.NewSource(seed))
	mp := core.MatrixParams{K: testParams.K, M1: testParams.M, M2: testParams.M, Epsilon: testParams.Epsilon}
	famA := core.Params{K: mp.K, M: mp.M1, Epsilon: mp.Epsilon}.NewFamily(hashing.AttributeSeed(testSeed, 0))
	famB := core.Params{K: mp.K, M: mp.M2, Epsilon: mp.Epsilon}.NewFamily(hashing.AttributeSeed(testSeed, 1))
	out := make([]core.MatrixReport, n)
	for i := range out {
		out[i] = core.PerturbTuple(rng.Uint64()%100, rng.Uint64()%100, mp, famA, famB, rng)
	}
	return out
}

// TestStoreMatrixColumn: a matrix column's WAL records, checkpoint, and
// finalized snapshot all round-trip through recovery, carrying the
// manifest kind and attribute with them; a name claimed by one kind
// refuses appends of the other.
func TestStoreMatrixColumn(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	rep := testMatrixReports(1, 250)
	if err := st.AppendMatrixReports("ab", 0, [][]core.MatrixReport{rep[:100], rep[100:]}); err != nil {
		t.Fatal(err)
	}
	// Kind and attribute are part of the column's identity.
	if err := st.AppendReports("ab", 0, [][]core.Report{testReports(2, 5)}); err == nil {
		t.Fatal("join append into a matrix column was accepted")
	}
	if err := st.AppendMatrixReports("ab", 1, [][]core.MatrixReport{rep[:5]}); err == nil {
		t.Fatal("attribute-mismatched append was accepted")
	}
	st.Close()

	st2 := open(t, dir, Options{})
	got := newReplayLog()
	stats, err := st2.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Columns != 1 || stats.Reports != 250 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	if info := got.infos["ab"]; info.Kind != protocol.KindMatrix || info.Attr != 0 {
		t.Fatalf("recovered column info = %+v", info)
	}
	for i, r := range got.matrixReports["ab"] {
		if r != rep[i] {
			t.Fatalf("matrix report %d: %v, want %v", i, r, rep[i])
		}
	}

	// Checkpoint with matrix state, reopen, finalize, reopen again.
	mp := core.MatrixParams{K: testParams.K, M1: testParams.M, M2: testParams.M, Epsilon: testParams.Epsilon}
	famA := core.Params{K: mp.K, M: mp.M1, Epsilon: mp.Epsilon}.NewFamily(hashing.AttributeSeed(testSeed, 0))
	famB := core.Params{K: mp.K, M: mp.M2, Epsilon: mp.Epsilon}.NewFamily(hashing.AttributeSeed(testSeed, 1))
	agg := core.NewMatrixAggregator(mp, famA, famB)
	for _, r := range rep {
		agg.Add(r)
	}
	if err := st2.Checkpoint("ab", 0, protocol.SnapshotOfMatrixAggregator(agg)); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3 := open(t, dir, Options{})
	got = newReplayLog()
	stats, err = st3.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints != 1 || stats.Reports != 0 {
		t.Fatalf("checkpoint recovery stats = %+v", stats)
	}
	ckpt := got.checkpoints["ab"]
	if ckpt == nil || ckpt.Kind != protocol.SnapshotMatrix || ckpt.N != 250 {
		t.Fatalf("checkpoint replay = %+v", ckpt)
	}
	restored, err := ckpt.MatrixAggregator()
	if err != nil {
		t.Fatal(err)
	}
	final := protocol.SnapshotOfMatrixSketch(restored.Finalize())
	if err := st3.Finalize("ab", 0, final); err != nil {
		t.Fatal(err)
	}
	st3.Close()

	st4 := open(t, dir, Options{})
	got = newReplayLog()
	stats, err = st4.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalizedColumns != 1 || stats.Columns != 0 {
		t.Fatalf("finalized recovery stats = %+v", stats)
	}
	snap := got.finalized["ab"]
	if snap == nil || snap.Kind != protocol.SnapshotMatrix || !snap.Finalized {
		t.Fatalf("finalized replay = %+v", snap)
	}
	reenc, err := protocol.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := protocol.EncodeSnapshot(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, want) {
		t.Fatal("recovered finalized matrix snapshot is not byte-identical")
	}
}

// TestStoreRejectsAttrMismatchedSnapshot: a merge record whose snapshot
// seeds do not match the column's attribute slot refuses to replay.
func TestStoreRejectsAttrMismatchedSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	// A snapshot built under attribute 1's family, logged into an
	// attribute-0 column: the append layer trusts the service, so the
	// record lands — recovery must be the backstop that rejects it.
	foreign := core.NewAggregator(testParams, testParams.NewFamily(hashing.AttributeSeed(testSeed, 1)))
	enc, err := protocol.EncodeSnapshot(protocol.SnapshotOfAggregator(foreign))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendMerge("a", protocol.KindJoin, 0, enc); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := open(t, dir, Options{})
	if _, err := st2.Recover(newReplayLog()); err == nil || !errors.Is(err, protocol.ErrSnapshotMismatch) {
		t.Fatalf("attr-mismatched merge replay: got %v, want ErrSnapshotMismatch", err)
	}
}

// TestStoreRefusesVersion1MatrixMerge: a matrix merge record in a WAL
// written before matrix state became sparse counts carries a version 1
// (dense) snapshot, and recovery refuses it with the error that names
// the format break rather than replaying around it.
func TestStoreRefusesVersion1MatrixMerge(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("..", "protocol", "testdata", "matrix_v1_unfinalized.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendMerge("ab", protocol.KindMatrix, 0, old); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := open(t, dir, Options{})
	if _, err := st2.Recover(newReplayLog()); !errors.Is(err, protocol.ErrBadSnapshot) || !strings.Contains(err.Error(), "version 1 matrix snapshot") {
		t.Fatalf("replaying a version 1 matrix merge: got %v, want the version 1 matrix refusal", err)
	}
}

// testPlusFams derives the sample and group families of a plus column
// on attribute 0, exactly as the service does.
func testPlusFams() (famS, famG *hashing.Family) {
	seed := hashing.AttributeSeed(testSeed, 0)
	return testParams.NewFamily(core.PlusSampleSeed(seed)), testParams.NewFamily(core.PlusGroupSeed(seed))
}

func famReports(fam *hashing.Family, seed int64, n int) []core.Report {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Report, n)
	for i := range out {
		out[i] = core.Perturb(rng.Uint64()%100, testParams, fam, rng)
	}
	return out
}

// TestStorePlusColumn: a plus column's phase-tagged report records,
// advance record, composite checkpoint, and finalized composite all
// round-trip through recovery in append order; a name claimed by the
// plus kind refuses join appends.
func TestStorePlusColumn(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	famS, famG := testPlusFams()
	sample := famReports(famS, 1, 120)
	low := famReports(famG, 2, 70)
	high := famReports(famG, 3, 40)
	fi := []uint64{3, 17, 61}
	if err := st.AppendPlusReports("p", 0, protocol.PlusSample, [][]core.Report{sample[:50], sample[50:]}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPlusAdvance("p", 0, 100, 0.1, fi); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPlusReports("p", 0, protocol.PlusLow, [][]core.Report{low}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPlusReports("p", 0, protocol.PlusHigh, [][]core.Report{high}); err != nil {
		t.Fatal(err)
	}
	// Kind is part of the column's identity.
	if err := st.AppendReports("p", 0, [][]core.Report{sample[:5]}); err == nil {
		t.Fatal("join append into a plus column was accepted")
	}
	st.Close()

	st2 := open(t, dir, Options{})
	got := newReplayLog()
	stats, err := st2.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Columns != 1 || stats.Reports != 230 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	if info := got.infos["p"]; info.Kind != protocol.KindPlus || info.Attr != 0 {
		t.Fatalf("recovered column info = %+v", info)
	}
	events := got.plusEvents["p"]
	if len(events) != 4 {
		t.Fatalf("replayed %d plus events, want 4: %+v", len(events), events)
	}
	wantOrder := []struct {
		kind  string
		group protocol.PlusGroup
		n     int
	}{
		{"reports", protocol.PlusSample, 120},
		{"advance", 0, 0},
		{"reports", protocol.PlusLow, 70},
		{"reports", protocol.PlusHigh, 40},
	}
	for i, want := range wantOrder {
		ev := events[i]
		if ev.kind != want.kind || (want.kind == "reports" && (ev.group != want.group || len(ev.reports) != want.n)) {
			t.Fatalf("event %d = {%s %v %d reports}, want %+v", i, ev.kind, ev.group, len(ev.reports), want)
		}
	}
	for i, r := range events[0].reports {
		if r != sample[i] {
			t.Fatalf("sample report %d: %v, want %v", i, r, sample[i])
		}
	}
	adv := events[1]
	if adv.domain != 100 || adv.theta != 0.1 || len(adv.fi) != 3 || adv.fi[0] != 3 || adv.fi[2] != 61 {
		t.Fatalf("advance replay = %+v", adv)
	}

	// Checkpoint the composite state, reopen, finalize, reopen again.
	aggS := core.NewAggregator(testParams, famS)
	for _, r := range sample {
		aggS.Add(r)
	}
	aggL := core.NewAggregator(testParams, famG)
	for _, r := range low {
		aggL.Add(r)
	}
	aggH := core.NewAggregator(testParams, famG)
	for _, r := range high {
		aggH.Add(r)
	}
	ckpt := &protocol.PlusSnapshot{
		Advanced: true,
		Domain:   100, Theta: 0.1, FI: fi,
		Sample: protocol.SnapshotOfAggregator(aggS),
		Low:    protocol.SnapshotOfAggregator(aggL),
		High:   protocol.SnapshotOfAggregator(aggH),
	}
	if err := st2.Checkpoint("p", 0, ckpt); err != nil {
		t.Fatal(err)
	}
	if err := st2.AppendPlusReports("p", 0, protocol.PlusLow, [][]core.Report{low[:5]}); !errors.Is(err, ErrColumnFinalized) {
		t.Fatalf("append after plus checkpoint: got %v, want ErrColumnFinalized", err)
	}
	st2.Close()

	st3 := open(t, dir, Options{})
	got = newReplayLog()
	stats, err = st3.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints != 1 || stats.Reports != 0 {
		t.Fatalf("plus checkpoint recovery stats = %+v", stats)
	}
	events = got.plusEvents["p"]
	if len(events) != 1 || events[0].kind != "checkpoint" || events[0].snap.N() != 230 {
		t.Fatalf("plus checkpoint replay = %+v", events)
	}
	final := &protocol.PlusSnapshot{
		Finalized: true, Advanced: true,
		Domain: 100, Theta: 0.1, FI: fi,
		Sample: protocol.SnapshotOfSketch(aggS.Finalize()),
		Low:    protocol.SnapshotOfSketch(aggL.Finalize()),
		High:   protocol.SnapshotOfSketch(aggH.Finalize()),
	}
	if err := st3.FinalizePlus("p", 0, final); err != nil {
		t.Fatal(err)
	}
	st3.Close()

	st4 := open(t, dir, Options{})
	got = newReplayLog()
	stats, err = st4.Recover(got)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalizedColumns != 1 || stats.Columns != 0 {
		t.Fatalf("plus finalized recovery stats = %+v", stats)
	}
	snap := got.plusFinalized["p"]
	if snap == nil || !snap.Finalized || !snap.Advanced {
		t.Fatalf("plus finalized replay = %+v", snap)
	}
	reenc, err := protocol.EncodePlusSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := protocol.EncodePlusSnapshot(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, want) {
		t.Fatal("recovered finalized plus snapshot is not byte-identical")
	}
}

// TestStorePlusMidPhaseRecovery: a crash before any advance replays as
// a phase-1 column (sample events only, no advance), and a mid-phase-2
// crash replays the boundary before the group reports.
func TestStorePlusMidPhaseRecovery(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	famS, _ := testPlusFams()
	sample := famReports(famS, 1, 60)
	if err := st.AppendPlusReports("p", 0, protocol.PlusSample, [][]core.Report{sample}); err != nil {
		t.Fatal(err)
	}
	st.Close() // crash mid-phase-1: no checkpoint, WAL only

	st2 := open(t, dir, Options{})
	got := newReplayLog()
	if _, err := st2.Recover(got); err != nil {
		t.Fatal(err)
	}
	events := got.plusEvents["p"]
	if len(events) != 1 || events[0].kind != "reports" || events[0].group != protocol.PlusSample {
		t.Fatalf("mid-phase-1 replay = %+v", events)
	}
	if err := st2.AppendPlusAdvance("p", 0, 100, 0.2, nil); err != nil {
		t.Fatal(err)
	}
	st2.Close() // crash mid-phase-2, right after the advance

	st3 := open(t, dir, Options{})
	got = newReplayLog()
	if _, err := st3.Recover(got); err != nil {
		t.Fatal(err)
	}
	events = got.plusEvents["p"]
	if len(events) != 2 || events[0].kind != "reports" || events[1].kind != "advance" {
		t.Fatalf("mid-phase-2 replay = %+v", events)
	}
	if adv := events[1]; adv.domain != 100 || adv.theta != 0.2 || len(adv.fi) != 0 {
		t.Fatalf("advance with empty FI replay = %+v", adv)
	}
}

// findAll returns every file under dir (recursively) with the given
// suffix, sorted by path.
func findAll(t *testing.T, dir, suffix string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, suffix) {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// dirNames lists the file names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func findOne(t *testing.T, dir, suffix string) string {
	t.Helper()
	all := findAll(t, dir, suffix)
	if len(all) != 1 {
		t.Fatalf("want exactly one %s file, got %v", suffix, all)
	}
	return all[0]
}
