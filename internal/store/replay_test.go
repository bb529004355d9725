package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/race"
)

// poolReplayer is a Replayer that holds the store to the reports half of
// its contract — every call carries one batch of at most
// DefaultBatchSize reports with the pool's capacity — keeps what it
// needs of each batch, and recycles it the way a fold worker does.
// Anything but join reports is an error.
type poolReplayer struct {
	*replayLog
	keep  bool // copy every report into replayLog.reports
	calls int
	n     int64    // reports delivered
	order []string // column names in order of first appearance
	err   error    // the first contract violation
}

func (p *poolReplayer) RecoverReports(col ColumnInfo, reports []core.Report) error {
	if len(p.order) == 0 || p.order[len(p.order)-1] != col.Name {
		p.order = append(p.order, col.Name)
	}
	if p.err == nil && (len(reports) == 0 || len(reports) > protocol.DefaultBatchSize || cap(reports) != protocol.DefaultBatchSize) {
		p.err = fmt.Errorf("column %s: a reports call carried len %d cap %d, want a pooled batch of 1..%d",
			col.Name, len(reports), cap(reports), protocol.DefaultBatchSize)
	}
	p.calls++
	p.n += int64(len(reports))
	if p.keep {
		p.replayLog.reports[col.Name] = append(p.replayLog.reports[col.Name], reports...)
	}
	protocol.PutReportBatch(reports)
	return nil
}

// mallocsDuring reports the heap allocations (count and bytes) f makes.
func mallocsDuring(f func()) (count, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// appendRaw appends raw bytes to a file.
func appendRaw(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// hostileHeader is a record header that claims a 200 MiB payload —
// under MaxRecordPayload, so only the bytes really left in the segment
// can refuse it before the checksum has anything to check.
var hostileHeader = []byte{0x0c, 0x80, 0x00, 0x00, byte(protocol.RecordReports)}

// TestRecoverHostileLength: a length field is trusted no further than
// the segment's size. At the tail of the last segment a header claiming
// 200 MiB is a torn write — cut, recovery carries on — and in an earlier
// segment it is corruption; either way nothing near 200 MiB is
// allocated to find out.
func TestRecoverHostileLength(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{SegmentBytes: 1})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2; i++ { // SegmentBytes 1: a segment each
		if err := st.AppendReports("a", 0, [][]core.Report{testReports(i, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	segs := findAll(t, dir, segSuffix)
	if len(segs) != 2 {
		t.Fatalf("want two segments, got %v", segs)
	}
	slices.Sort(segs)

	appendRaw(t, segs[1], hostileHeader)
	st2 := open(t, dir, Options{})
	got := newReplayLog()
	var stats RecoveryStats
	var err error
	_, bytes := mallocsDuring(func() { stats, err = st2.Recover(got) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.TruncatedTails != 1 || stats.Reports != 200 || len(got.reports["a"]) != 200 {
		t.Fatalf("stats = %+v, %d reports; want 1 truncated tail and 200 reports", stats, len(got.reports["a"]))
	}
	if bytes >= 1<<20 {
		t.Fatalf("recovering past a 5-byte header that claims 200 MiB allocated %d bytes, want < 1 MiB", bytes)
	}
	st2.Close()

	// The same header in a segment that is not the last is corruption.
	appendRaw(t, segs[0], hostileHeader)
	st3 := open(t, dir, Options{})
	_, bytes = mallocsDuring(func() { _, err = st3.Recover(newReplayLog()) })
	if !errors.Is(err, protocol.ErrBadRecord) {
		t.Fatalf("hostile length mid-log: got %v, want ErrBadRecord", err)
	}
	if bytes >= 1<<20 {
		t.Fatalf("refusing a mid-log header that claims 200 MiB allocated %d bytes, want < 1 MiB", bytes)
	}
}

// TestRecoverOrderIsSorted: columns replay in name order, and when two
// of them are corrupt the error names the first in that order, on every
// run — not whichever the manifest map happened to yield.
func TestRecoverOrderIsSorted(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{SegmentBytes: 1, NoSync: true})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	names := []string{"m", "c", "x", "a", "k", "e", "b", "z", "d", "y"}
	for round := int64(0); round < 2; round++ { // two segments per column
		for i, name := range names {
			if err := st.AppendReports(name, 0, [][]core.Report{testReports(round*100+int64(i), 10)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Close()

	for i := 0; i < 4; i++ {
		st := open(t, dir, Options{NoSync: true})
		got := &poolReplayer{replayLog: newReplayLog()}
		stats, err := st.Recover(got)
		if err != nil || got.err != nil {
			t.Fatal(err, got.err)
		}
		want := slices.Sorted(slices.Values(names))
		if !slices.Equal(got.order, want) {
			t.Fatalf("replay order %v, want %v", got.order, want)
		}
		if stats.Columns != int64(len(names)) || stats.Reports != int64(20*len(names)) {
			t.Fatalf("stats = %+v", stats)
		}
		st.Close()
	}

	// Damage the first segment of columns "k" and "d": mid-log, so fatal.
	for _, name := range []string{"k", "d"} {
		st := open(t, dir, Options{NoSync: true})
		segs := findAll(t, st.colDir(st.man.Columns[name].ID), segSuffix)
		st.Close()
		slices.Sort(segs)
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		st := open(t, dir, Options{NoSync: true})
		got := &poolReplayer{replayLog: newReplayLog()}
		stats, err := st.Recover(got)
		if !errors.Is(err, protocol.ErrBadRecord) || !strings.Contains(err.Error(), `column "d"`) {
			t.Fatalf("run %d: got %v, want the bad record of column \"d\"", i, err)
		}
		if want := []string{"a", "b", "c"}; !slices.Equal(got.order, want) || stats.Columns != 3 {
			t.Fatalf("run %d: replayed %v (%d columns) before the error, want %v", i, got.order, stats.Columns, want)
		}
		st.Close()
	}
}

// TestRecoverLargeRecordArrivesPooled: a record is replayed at the live
// ingest granularity whatever size it was written at — 20,000 reports in
// one record reach the Replayer as five pooled batches, in order.
func TestRecoverLargeRecordArrivesPooled(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir, Options{NoSync: true})
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	reports := testReports(9, 20000)
	if err := st.AppendReports("a", 0, [][]core.Report{reports}); err != nil {
		t.Fatal(err)
	}
	famS, _ := testPlusFams()
	sample := famReports(famS, 10, 20000)
	if err := st.AppendPlusReports("p", 0, protocol.PlusSample, [][]core.Report{sample}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := open(t, dir, Options{NoSync: true})
	got := &poolReplayer{replayLog: newReplayLog(), keep: true}
	stats, err := st2.Recover(got)
	if err != nil || got.err != nil {
		t.Fatal(err, got.err)
	}
	if want := (20000 + protocol.DefaultBatchSize - 1) / protocol.DefaultBatchSize; got.calls != want {
		t.Fatalf("the 20,000-report record arrived in %d calls, want %d", got.calls, want)
	}
	if stats.Reports != 40000 || !slices.Equal(got.reports["a"], reports) {
		t.Fatalf("stats = %+v; the replayed reports differ from the appended ones", stats)
	}
	var plus []core.Report
	for _, ev := range got.plusEvents["p"] {
		if ev.kind != "reports" || ev.group != protocol.PlusSample || len(ev.reports) > protocol.DefaultBatchSize || cap(ev.reports) != protocol.DefaultBatchSize {
			t.Fatalf("plus event %s group %v len %d cap %d", ev.kind, ev.group, len(ev.reports), cap(ev.reports))
		}
		plus = append(plus, ev.reports...)
	}
	if !slices.Equal(plus, sample) {
		t.Fatal("the replayed plus reports differ from the appended ones")
	}
}

// writeBulkLog fills a fresh store with the bulk ingest shape: records
// of 16,384 reports (112 KiB), perColumn of them in each of columns
// columns, signs random. It returns the WAL bytes written.
func writeBulkLog(tb testing.TB, dir string, p core.Params, columns, perColumn int) int64 {
	tb.Helper()
	st, err := Open(dir, p, testSeed, Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(newReplayLog()); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	batches := make([][]core.Report, 4)
	for i := range batches {
		batches[i] = make([]core.Report, protocol.DefaultBatchSize)
	}
	for rec := 0; rec < perColumn; rec++ {
		for c := 0; c < columns; c++ {
			for _, batch := range batches {
				for j := range batch {
					batch[j] = core.Report{Y: int8(2*rng.Intn(2) - 1), Row: uint32(rng.Intn(p.K)), Col: uint32(rng.Intn(p.M))}
				}
			}
			if err := st.AppendReports(fmt.Sprintf("col%d", c), 0, batches); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return st.Stats().Bytes
}

// TestRecoverAllocatesPerColumn: replay allocates per column (a record
// buffer, a reader, the directory walk), not per record — four times
// the records of the 8-column bulk shape cost no more allocations, and
// recovery as a whole allocates less than one of its records per
// column.
func TestRecoverAllocatesPerColumn(t *testing.T) {
	const columns = 8
	recover := func(perColumn int) (count, bytes uint64) {
		dir := t.TempDir()
		writeBulkLog(t, dir, testParams, columns, perColumn)
		st := open(t, dir, Options{NoSync: true})
		got := &poolReplayer{replayLog: newReplayLog()}
		var stats RecoveryStats
		var err error
		count, bytes = mallocsDuring(func() { stats, err = st.Recover(got) })
		if err != nil || got.err != nil {
			t.Fatal(err, got.err)
		}
		if want := int64(columns * perColumn * 4 * protocol.DefaultBatchSize); stats.Reports != want || got.n != want {
			t.Fatalf("replayed %d reports (%d delivered), want %d", stats.Reports, got.n, want)
		}
		return count, bytes
	}
	recover(1) // fill the batch pool
	few, fewBytes := recover(3)
	many, manyBytes := recover(12)
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop batches at random; the counts mean nothing")
	}
	// 72 more records, 288 more batches. A garbage collection may empty
	// the pool mid-replay and cost a handful of fresh batches; one
	// allocation per record would cost 72.
	if many > few+24 {
		t.Fatalf("recovering 12 records per column made %d allocations, 3 per column %d: replay allocates per record", many, few)
	}
	if perColumn := manyBytes / columns; perColumn > 4*16384*protocol.ReportSize {
		t.Fatalf("recovery allocated %d bytes per column (%d in all; %d for a quarter of the records)", perColumn, manyBytes, fewBytes)
	}
}

// TestAllocationCeilings holds the store's two per-request paths to
// absolute allocation counts — deterministic on any machine, so a tier-1
// test can block on them where a timing could not (timings live in
// bench/). Both at the bulk ingest shape, 112 KiB records of 16,384
// reports, with the figures measured when the ceilings moved here from
// the benchmark gate:
//
//	Store.Recover, 8 columns × 10 records       342–344 allocations, ceiling 400
//	Store.AppendReports, one more record        0 allocations, ceiling 0
func TestAllocationCeilings(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop batches at random; the counts mean nothing")
	}
	p := core.Params{K: 18, M: 1024, Epsilon: 4}
	dir := t.TempDir()
	writeBulkLog(t, dir, p, 8, 10)
	recover := func() uint64 {
		st, err := Open(dir, p, testSeed, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		got := &poolReplayer{replayLog: newReplayLog()}
		var stats RecoveryStats
		count, _ := mallocsDuring(func() { stats, err = st.Recover(got) })
		if err != nil || got.err != nil || stats.Reports != 8*10*16384 {
			t.Fatal(err, got.err, stats)
		}
		return count
	}
	recover() // fill the batch pool
	// A garbage collection may empty the pool mid-replay and cost a few
	// fresh batches; the ceiling is on what the code does, so the
	// quietest of three runs is the one held to it.
	if n := min(recover(), recover(), recover()); n > 400 {
		t.Errorf("recovering 8 columns allocates %d times, ceiling 400", n)
	}

	st, err := Open(t.TempDir(), p, testSeed, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(newReplayLog()); err != nil {
		t.Fatal(err)
	}
	batches := make([][]core.Report, 4)
	for i := range batches {
		batches[i] = make([]core.Report, protocol.DefaultBatchSize)
		for j := range batches[i] {
			batches[i][j] = core.Report{Y: 1, Row: uint32(j % p.K), Col: uint32(j % p.M)}
		}
	}
	// The first append opens the column's log; AllocsPerRun's warm-up run
	// absorbs it, and every later record frames into the log's buffer.
	n := testing.AllocsPerRun(20, func() {
		if err := st.AppendReports("col", 0, batches); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("appending one record allocates %v times, ceiling 0", n)
	}
}

// BenchmarkRecover is the ledger entry for WAL replay: Store.Recover of
// the bulk ingest shape — 8 columns of 112 KiB records, 16,384 reports
// each — into a Replayer that recycles every batch, so the time is the
// store's own: read, CRC, decode. The signs are RANDOM on purpose: a
// report's sign is a fair coin by construction, and a constant-sign log
// predicts perfectly and hides exactly the decode cost this benchmark
// exists to hold down. allocs/op is per column, not per record;
// TestAllocationCeilings blocks on it.
func BenchmarkRecover(b *testing.B) {
	p := core.Params{K: 18, M: 1024, Epsilon: 4}
	dir := b.TempDir()
	walBytes := writeBulkLog(b, dir, p, 8, 10)
	b.SetBytes(walBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := Open(dir, p, testSeed, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		got := &poolReplayer{replayLog: newReplayLog()}
		b.StartTimer()
		stats, err := st.Recover(got)
		b.StopTimer()
		if err != nil || got.err != nil || stats.Reports != 8*10*16384 {
			b.Fatal(err, got.err, stats)
		}
		st.Close()
		b.StartTimer()
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/(float64(walBytes)/1e9), "s/GB")
}
