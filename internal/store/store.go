// Package store is the durable column store of the aggregation service:
// a per-column, segmented, CRC-framed write-ahead log of accepted
// report batches and merges, per-column SNAP checkpoints, and a
// manifest tying names to on-disk state. It exists because the
// service's aggregation state is privacy-critical: losing a collecting
// column to a restart means re-collecting reports, and every re-sent
// report re-spends its user's privacy budget. Durability is therefore a
// privacy property here, and the correctness bar is exact — a recovered
// column must finalize to a sketch byte-identical to an uninterrupted
// run, which the integer-cell linearity of the paper's sketches makes
// achievable (replay is just re-folding; folds commute exactly).
//
// # Layout
//
//	<dir>/manifest.json            names → ids, kinds and attribute slots,
//	                               and the configuration fingerprint
//	                               (k, m, ε, seed)
//	<dir>/col-<id>/seg-<seq>.wal   WAL segments (protocol WAL records)
//	<dir>/col-<id>/ckpt-<seq>.snap SNAP checkpoint covering segs <= seq
//	<dir>/col-<id>/final.snap      finalized SNAP; the column's terminal
//	                               state and its one finalization record
//
// # Lifecycle
//
// An append (reports or a merge) is framed as WAL records, written to
// the column's current segment, and fsynced before the caller may
// acknowledge: acknowledged means crash-durable. Segments rotate at a
// size threshold; a restart always starts a fresh segment, so a torn
// tail can only ever sit at the end of the highest segment, where
// recovery truncates it (records behind a tear are unreachable, so
// nothing may ever be appended behind one).
//
// A checkpoint — cut in the background once a column's WAL outgrows
// Options.CheckpointBytes, and for every collecting column at graceful
// shutdown — rotates the log (Rotate: the next append starts a fresh
// segment), writes the column's unfinalized state as captured at that
// cut as ckpt-<S>.snap where S is the highest segment the cut closed,
// then deletes the covered segments (SaveCheckpoint); the column keeps
// its log open and collecting. Finalize seals, writes
// final.snap, and returns: the finalize is acknowledged once final.snap
// is durable, and the log is retired entirely behind the ack, by a
// goroutine that Close waits for. Both file writes are atomic (temp +
// rename + dir fsync) and ordered write-then-delete, so a crash between
// the two steps leaves covered segments behind — recovery replays only
// segments above the newest checkpoint, and a final.snap wins outright
// and has its column's leftovers deleted, so they never double-count.
//
// # Recovery
//
// Recover walks the manifest: columns with a final.snap yield it;
// collecting columns yield the newest checkpoint (if any)
// followed by every WAL record in segments above it, in order. Distinct
// columns replay concurrently, each on one goroutine. All payloads are
// CRC-checked at the framing layer, bounds-checked against the store's
// parameters, and snapshot payloads are additionally fingerprint-checked
// — a log written under a different configuration refuses to load
// rather than poisoning a sketch.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/kernel"
	"ldpjoin/internal/protocol"
)

// DefaultSegmentBytes is the WAL segment rotation threshold unless
// Options overrides it.
const DefaultSegmentBytes = 8 << 20

// maxReportsPerRecord bounds one RecordReports payload
// (protocol.ReportSize bytes per report) comfortably under
// protocol.MaxRecordPayload; larger appends split across records.
const maxReportsPerRecord = 1 << 20

// manifestName is the manifest file inside the data directory.
const manifestName = "manifest.json"

// lockName is the advisory-lock file inside the data directory: one
// process owns a store at a time.
const lockName = "LOCK"

// manifestVersion is the manifest schema this package writes.
const manifestVersion = 1

// Options tunes a Store. The zero value selects defaults.
type Options struct {
	// SegmentBytes is the WAL segment rotation threshold; <= 0 selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips every fsync. Appends then survive process crashes
	// (the page cache persists) but not power loss or kernel panics —
	// acceptable for tests and throwaway deployments only.
	NoSync bool
	// CheckpointBytes triggers a background checkpoint of a column once
	// its WAL has grown this many bytes past the last checkpoint cut.
	// <= 0 runs no background checkpointer: checkpoints happen only at
	// shutdown. The bound caps what a recovery replays per column.
	CheckpointBytes int64
	// CheckpointTick is the policy evaluation period of the background
	// checkpointer; <= 0 selects one second.
	CheckpointTick time.Duration
}

func (o Options) normalized() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.CheckpointTick <= 0 {
		o.CheckpointTick = time.Second
	}
	return o
}

var (
	// ErrClosed is returned when the store is used after Close.
	ErrClosed = errors.New("store: closed")
	// ErrColumnFinalized is returned when appending to a column whose
	// log has been sealed by Finalize.
	ErrColumnFinalized = errors.New("store: column is finalized")
)

// manifest is the JSON-encoded root of the store: the configuration
// fingerprint everything inside was written under, and the column
// name → directory mapping.
type manifest struct {
	Version int                    `json:"version"`
	K       int                    `json:"k"`
	M       int                    `json:"m"`
	Epsilon float64                `json:"epsilon"`
	Seed    int64                  `json:"seed"`
	NextID  uint64                 `json:"nextId"`
	Columns map[string]*columnMeta `json:"columns"`
}

// columnMeta records a column's durable identity. Kind discriminates the
// sketch shape (reusing the wire stream kinds; a zero from a manifest
// written before kinds existed normalizes to KindJoin). Attr is the
// column's join-attribute slot: a join column aggregates under the hash
// family of attribute Attr, a matrix column under the families of
// attributes (Attr, Attr+1) — all derived from the store's base seed via
// hashing.AttributeSeed, which is what lets recovery re-derive the exact
// families without persisting them.
//
// Finalized is in memory only: the durable sign of finalization is the
// column's final.snap, so Finalize sets the flag with no I/O and Recover
// sets it when it finds the file. A manifest that still carries a
// "finalized" key opens unchanged; the key is ignored.
type columnMeta struct {
	ID        uint64        `json:"id"`
	Finalized bool          `json:"-"`
	Kind      protocol.Kind `json:"kind,omitempty"`
	Attr      int           `json:"attr,omitempty"`
}

// Stats counts the store's durable work since Open.
type Stats struct {
	Appends     int64 // acknowledged append calls (reports or merges)
	Bytes       int64 // framed WAL bytes written
	Checkpoints int64 // checkpoint snapshots persisted
	Finalized   int64 // finalize + finalized-import persists

	// BackgroundCheckpoints counts the same persists as Checkpoints:
	// every checkpoint — the background checkpointer's, a direct one,
	// a shutdown's — is one Rotate cut that leaves the column collecting.
	BackgroundCheckpoints  int64
	CheckpointErrors       int64 // failed background checkpoint attempts
	PendingWALBytes        int64 // WAL bytes not yet covered by a checkpoint, summed over columns
	LastCheckpointUnixNano int64 // when the newest checkpoint was persisted (0 = never)
	LastCheckpointNanos    int64 // how long the newest background checkpoint took
}

// RecoveryStats summarizes what Recover rebuilt.
type RecoveryStats struct {
	Columns          int64 // collecting columns rebuilt
	FinalizedColumns int64
	Reports          int64 // reports replayed from WAL records (join + matrix)
	Merges           int64 // merge records replayed
	Checkpoints      int64 // checkpoint snapshots restored
	TruncatedTails   int64 // segments whose torn tail was cut
}

// add sums one column's recovery into s.
func (s *RecoveryStats) add(o RecoveryStats) {
	s.Columns += o.Columns
	s.FinalizedColumns += o.FinalizedColumns
	s.Reports += o.Reports
	s.Merges += o.Merges
	s.Checkpoints += o.Checkpoints
	s.TruncatedTails += o.TruncatedTails
}

// ColumnInfo identifies a recovering column: its name, manifest kind,
// and the join-attribute slot its hash families derive from (a matrix
// column spans attributes Attr and Attr+1).
type ColumnInfo struct {
	Name string
	Kind protocol.Kind
	Attr int
}

// Replayer receives the recovered state of a store, column by column:
// for a finalized column exactly one RecoverFinalized call; for a
// collecting column at most one RecoverCheckpoint call followed by the
// column's WAL events in append order. Snapshot-carrying calls receive
// join or matrix snapshots according to col.Kind; report records arrive
// through RecoverReports or RecoverMatrixReports to match. The
// aggregation side implements this by folding into its ingest columns —
// integer cells make the replayed state exactly what the pre-crash
// process held.
//
// The per-column contract: all of one column's calls come from one
// goroutine, in that order, and never overlap one another; calls for
// distinct columns may run concurrently, in any interleaving. A Replayer
// must therefore be safe for concurrent use across columns — state kept
// per column needs no lock, state shared between columns does.
//
// A report record is delivered at the live ingest granularity, whatever
// size it was written at: each reports call carries one batch of at most
// protocol.DefaultBatchSize reports, drawn from the protocol batch pool
// and owned by the callee from the call on — it recycles the batch
// (PutReportBatch / PutMatrixBatch, or a pooled enqueue) when done, and
// the store never touches it again.
type Replayer interface {
	RecoverFinalized(col ColumnInfo, snap *protocol.Snapshot) error
	RecoverCheckpoint(col ColumnInfo, snap *protocol.Snapshot) error
	RecoverReports(col ColumnInfo, reports []core.Report) error
	RecoverMatrixReports(col ColumnInfo, reports []core.MatrixReport) error
	RecoverMerge(col ColumnInfo, snap *protocol.Snapshot) error

	// Plus columns carry composite snapshots and two extra event types:
	// phase-tagged report records and the advance record that froze the
	// phase boundary. Replay order is append order, so a recovering
	// column sees exactly the sample-reports / advance / group-reports
	// sequence the pre-crash process accepted — including a crash
	// mid-phase-1 (no advance ever replayed) or mid-phase-2.
	RecoverPlusFinalized(col ColumnInfo, snap *protocol.PlusSnapshot) error
	RecoverPlusCheckpoint(col ColumnInfo, snap *protocol.PlusSnapshot) error
	RecoverPlusReports(col ColumnInfo, group protocol.PlusGroup, reports []core.Report) error
	RecoverPlusAdvance(col ColumnInfo, domain uint64, theta float64, fi []uint64) error
	RecoverPlusMerge(col ColumnInfo, snap *protocol.PlusSnapshot) error
}

// Store is the durable column store over one data directory. It is safe
// for concurrent use.
type Store struct {
	dir    string
	params core.Params
	seed   int64
	opts   Options
	lock   *os.File // flock held for the store's lifetime

	mu        sync.Mutex
	closed    bool
	recovered bool
	man       manifest
	logs      map[string]*columnLog
	stats     Stats
	ckpt      map[string]*ckptTrack // per-column background-checkpoint bookkeeping

	// retiring counts the finalized columns whose log is still being
	// deleted behind the ack. Add is called under mu while !closed, so
	// Close's Wait sees every one.
	retiring sync.WaitGroup
}

// ckptTrack is the background checkpointer's per-column state: how many
// WAL bytes have landed since the last checkpoint cut. It exists only
// for columns with appends this process lifetime (or un-checkpointed
// segments found at recovery) — exactly the columns a background
// checkpoint could have work on.
type ckptTrack struct {
	bytes int64 // WAL bytes appended since the last persisted checkpoint
	cut   int64 // bytes at the moment of the in-flight Rotate cut
}

// Open creates or reopens a data directory for the given protocol
// configuration. A directory written under a different configuration
// fingerprint (k, m, ε, seed) is refused: its state could neither be
// replayed nor merged exactly. Call Recover next, then the append side.
func Open(dir string, p core.Params, seed int64, opts Options) (*Store, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// One process per data directory: without exclusion, two servers
	// (a supervisor restart overlapping a slow shutdown, say) would
	// hand out the same column ids and rewrite each other's manifest —
	// silent cross-column corruption. The flock releases automatically
	// when the process dies, so a crash never wedges the directory.
	lock, err := acquireLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, fmt.Errorf("store: data dir %s: %w", dir, err)
	}
	st := &Store{
		dir:    dir,
		params: p,
		seed:   seed,
		opts:   opts.normalized(),
		lock:   lock,
		logs:   make(map[string]*columnLog),
		ckpt:   make(map[string]*ckptTrack),
	}
	fail := func(err error) (*Store, error) {
		lock.Close()
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		st.man = manifest{
			Version: manifestVersion,
			K:       p.K, M: p.M, Epsilon: p.Epsilon, Seed: seed,
			NextID:  1,
			Columns: make(map[string]*columnMeta),
		}
		if err := st.writeManifest(); err != nil {
			return fail(err)
		}
	case err != nil:
		return fail(fmt.Errorf("store: reading manifest: %w", err))
	default:
		if err := json.Unmarshal(data, &st.man); err != nil {
			return fail(fmt.Errorf("store: decoding manifest: %w", err))
		}
		if st.man.Version != manifestVersion {
			return fail(fmt.Errorf("store: unsupported manifest version %d", st.man.Version))
		}
		if st.man.K != p.K || st.man.M != p.M || st.man.Epsilon != p.Epsilon || st.man.Seed != seed {
			return fail(fmt.Errorf("store: data dir %s was written under join(k=%d, m=%d, ε=%g, seed=%d), not join(k=%d, m=%d, ε=%g, seed=%d)",
				dir, st.man.K, st.man.M, st.man.Epsilon, st.man.Seed, p.K, p.M, p.Epsilon, seed))
		}
		if st.man.Columns == nil {
			st.man.Columns = make(map[string]*columnMeta)
		}
		// Manifests written before column kinds existed carry no kind
		// byte; every column they name is a join column on attribute 0.
		for _, meta := range st.man.Columns {
			if meta.Kind == 0 {
				meta.Kind = protocol.KindJoin
			}
		}
	}
	return st, nil
}

// matrixParams derives the matrix-column shape of this store's
// configuration: K replicas of M×M cells under the scalar budget — the
// same derivation the service and the chain protocol use, so state is
// interchangeable across all three.
func (st *Store) matrixParams() core.MatrixParams {
	return core.MatrixParams{K: st.params.K, M1: st.params.M, M2: st.params.M, Epsilon: st.params.Epsilon}
}

// Dir returns the data directory the store was opened on.
func (st *Store) Dir() string { return st.dir }

// Stats returns a copy of the durable-work counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	for _, t := range st.ckpt {
		s.PendingWALBytes += t.bytes
	}
	return s
}

// track returns (creating on first use) the checkpoint bookkeeping of a
// column. Callers hold st.mu.
func (st *Store) track(name string) *ckptTrack {
	t, ok := st.ckpt[name]
	if !ok {
		t = &ckptTrack{}
		st.ckpt[name] = t
	}
	return t
}

// noteAppend records an acknowledged append in the store counters and
// the column's bytes-since-checkpoint tracker.
func (st *Store) noteAppend(name string, written int64) {
	st.mu.Lock()
	st.stats.Appends++
	st.stats.Bytes += written
	st.track(name).bytes += written
	st.mu.Unlock()
}

// writeManifest persists the manifest atomically. Callers hold st.mu.
func (st *Store) writeManifest() error {
	data, err := json.Marshal(&st.man)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(st.dir, manifestName), data, st.opts.NoSync)
}

// colDir returns the directory of a column id.
func (st *Store) colDir(id uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("col-%d", id))
}

// column returns the meta and open log for name, creating both on first
// use (the manifest write makes the name durable — kind and attribute
// included — before any record can reference it). A name that already
// exists under a different kind or attribute is refused: the WAL and
// snapshot payloads of the two kinds are not interchangeable, and
// neither are the hash families of two attribute slots. Callers must not
// hold st.mu.
func (st *Store) column(name string, kind protocol.Kind, attr int) (*columnMeta, *columnLog, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, nil, ErrClosed
	}
	meta, ok := st.man.Columns[name]
	if !ok {
		meta = &columnMeta{ID: st.man.NextID, Kind: kind, Attr: attr}
		if err := os.MkdirAll(st.colDir(meta.ID), 0o755); err != nil {
			return nil, nil, err
		}
		st.man.NextID++
		st.man.Columns[name] = meta
		if err := st.writeManifest(); err != nil {
			delete(st.man.Columns, name)
			st.man.NextID--
			return nil, nil, err
		}
	}
	if meta.Kind != kind || meta.Attr != attr {
		return nil, nil, fmt.Errorf("store: column %q is %v state of attribute %d, not %v state of attribute %d",
			name, meta.Kind, meta.Attr, kind, attr)
	}
	if meta.Finalized {
		return meta, nil, ErrColumnFinalized
	}
	log, err := st.openLog(name, meta)
	return meta, log, err
}

// openLog returns the open WAL of a collecting column, opening it on
// first use. Callers hold st.mu.
func (st *Store) openLog(name string, meta *columnMeta) (*columnLog, error) {
	log, ok := st.logs[name]
	if !ok {
		var err error
		if log, err = openColumnLog(st.colDir(meta.ID), st.opts.SegmentBytes, st.opts.NoSync); err != nil {
			return nil, err
		}
		st.logs[name] = log
	}
	return log, nil
}

// AppendReports makes a request's accepted join report batches durable:
// framed as one or more RecordReports records, appended to the column's
// WAL, and synced once before returning. attr is the column's
// join-attribute slot (0 for a plain pairwise deployment). Only
// acknowledge the request after a nil return.
func (st *Store) AppendReports(name string, attr int, batches [][]core.Report) error {
	return appendReportRecords(st, name, protocol.KindJoin, attr,
		protocol.RecordReports, nil, protocol.AppendReportsPayload, batches)
}

// AppendMatrixReports is AppendReports for a matrix column: accepted
// middle-table report batches framed as RecordMatrixReports records.
// attr is the left attribute of the pair the column spans.
func (st *Store) AppendMatrixReports(name string, attr int, batches [][]core.MatrixReport) error {
	return appendReportRecords(st, name, protocol.KindMatrix, attr,
		protocol.RecordMatrixReports, nil, protocol.AppendMatrixReportsPayload, batches)
}

// AppendPlusReports is AppendReports for one phase group of a plus
// column: RecordPlusReports records whose payload leads with the group
// byte. The caller has already gated the group against the column's
// phase; replay re-applies the same order, so what was accepted is what
// recovers.
func (st *Store) AppendPlusReports(name string, attr int, group protocol.PlusGroup, batches [][]core.Report) error {
	return appendReportRecords(st, name, protocol.KindPlus, attr,
		protocol.RecordPlusReports, []byte{byte(group)}, protocol.AppendReportsPayload, batches)
}

// appendReportRecords frames report batches — prefix, then encode's wire
// bytes per report — as records of rtype, splitting at
// maxReportsPerRecord, and appends them to the column's WAL with one
// sync. Each record is encoded straight into the log's scratch frame
// (next runs under the log's lock) and written as it is built, so a
// request allocates nothing here and the peak extra memory is one
// record, not a second copy of the whole request.
func appendReportRecords[T any](st *Store, name string, kind protocol.Kind, attr int,
	rtype protocol.RecordType, prefix []byte, encode func([]byte, []T) []byte, batches [][]T) error {
	total := 0
	for _, batch := range batches {
		total += len(batch)
	}
	if total == 0 {
		return nil
	}
	_, log, err := st.column(name, kind, attr)
	if err != nil {
		return err
	}
	bi, off := 0, 0 // cursor into batches
	next := func() []byte {
		frame := append(protocol.BeginRecord(log.frame[:0], rtype), prefix...)
		count := 0
		for bi < len(batches) && count < maxReportsPerRecord {
			batch := batches[bi][off:]
			n := min(maxReportsPerRecord-count, len(batch))
			frame = encode(frame, batch[:n])
			count += n
			if off += n; off == len(batches[bi]) {
				bi, off = bi+1, 0
			}
		}
		if count == 0 {
			if cap(log.frame) > maxRetainedFrame {
				log.frame = nil
			}
			return nil
		}
		log.frame = protocol.FinishRecord(frame, 0)
		return log.frame
	}
	written, err := log.appendFunc(next)
	if err != nil {
		return err
	}
	st.noteAppend(name, written)
	return nil
}

// AppendPlusAdvance makes a plus column's phase transition durable: one
// RecordPlusAdvance record freezing (domain, θ, FI). It must be
// appended before the advance is applied or acknowledged — group
// reports accepted after it depend on replay seeing the boundary first.
func (st *Store) AppendPlusAdvance(name string, attr int, domain uint64, theta float64, fi []uint64) error {
	return st.appendRecord(name, protocol.KindPlus, attr, protocol.RecordPlusAdvance,
		protocol.AppendPlusAdvancePayload(nil, domain, theta, fi))
}

// AppendMerge makes an accepted snapshot merge durable. The snapshot is
// stored in its encoded (CRC-carrying) form; the caller has already
// validated and fingerprint-checked it, and recovery checks both again.
// kind and attr name the column the merge lands in, exactly as in the
// report appends.
func (st *Store) AppendMerge(name string, kind protocol.Kind, attr int, encoded []byte) error {
	if len(encoded) > protocol.MaxRecordPayload {
		return fmt.Errorf("store: snapshot of %d bytes exceeds the %d-byte WAL record bound", len(encoded), protocol.MaxRecordPayload)
	}
	return st.appendRecord(name, kind, attr, protocol.RecordMerge, encoded)
}

// appendRecord appends one record to the column's WAL and syncs it.
func (st *Store) appendRecord(name string, kind protocol.Kind, attr int, rtype protocol.RecordType, payload []byte) error {
	_, log, err := st.column(name, kind, attr)
	if err != nil {
		return err
	}
	written, err := log.append(protocol.AppendRecord(nil, rtype, payload))
	if err != nil {
		return err
	}
	st.noteAppend(name, written)
	return nil
}

// Finalize persists a column's terminal state — its finalized SNAP or
// PSNP — as final.snap and returns once that file is durable; the
// column durably refuses appends from here on. It also installs
// finalized state under names with no prior log (snapshot import).
// final.snap is the only record of finalization, so nothing else is
// written: the WAL segments and any checkpoint are deleted afterwards,
// on a goroutine Close waits for, and a crash before they are gone
// leaves files that the next Recover deletes.
func (st *Store) Finalize(name string, attr int, snap protocol.ColumnSnapshot) error {
	if !snap.IsFinalized() {
		return fmt.Errorf("store: finalize of %q with an unfinalized snapshot", name)
	}
	meta, log, err := st.column(name, snap.ColumnKind(), attr)
	if err != nil {
		return err
	}
	if err := log.seal(); err != nil {
		return err
	}
	data, err := snap.Encode()
	if err != nil {
		return fmt.Errorf("store: encoding finalized state of %q: %w", name, err)
	}
	dir := st.colDir(meta.ID)
	if err := writeFileAtomic(filepath.Join(dir, finalName), data, st.opts.NoSync); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	meta.Finalized = true
	st.stats.Finalized++
	delete(st.logs, name)
	delete(st.ckpt, name)
	if st.closed {
		return nil // Close has released the directory; Recover retires the log
	}
	// As in SaveCheckpoint: final.snap is durable and wins at recovery,
	// so deleting the retired files is cleanup, not part of the finalize.
	st.retiring.Add(1)
	go func() {
		defer st.retiring.Done()
		_ = removeCovered(dir, ^uint64(0), 0)
	}()
	return nil
}

// FinalizePlus is Finalize under the name the benchmark harness calls;
// it goes with the harness's next edit.
func (st *Store) FinalizePlus(name string, attr int, snap *protocol.PlusSnapshot) error {
	return st.Finalize(name, attr, snap)
}

// errNoRecord is lookupColumn's answer for a name the manifest does not
// hold: the column's first append failed before the manifest named it,
// so nothing of it is durable.
var errNoRecord = errors.New("store: column has no durable record")

// lookupColumn returns the meta and open log of an existing collecting
// column by name alone — the checkpoint's lookup, which (unlike column)
// must not create anything and takes the kind from the manifest instead
// of asserting one.
func (st *Store) lookupColumn(name string) (*columnMeta, *columnLog, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, nil, ErrClosed
	}
	meta, ok := st.man.Columns[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", errNoRecord, name)
	}
	if meta.Finalized {
		return meta, nil, ErrColumnFinalized
	}
	log, err := st.openLog(name, meta)
	return meta, log, err
}

// Rotate cuts a collecting column's WAL for a checkpoint: the open
// segment is closed — not sealed; the next append starts a fresh
// segment — and the returned seq is the highest segment the checkpoint
// must cover. The caller must exclude concurrent appends to this column
// across Rotate and the in-memory state capture that follows (the
// service holds the column's operation lock), so that the captured state
// equals exactly the fold of segments <= covered. covered == 0 means the
// column has no durable records yet — including a name the manifest does
// not hold, whose first append failed: a reopened store would not know
// it either, so there is nothing to cover.
func (st *Store) Rotate(name string) (covered uint64, err error) {
	_, log, err := st.lookupColumn(name)
	if errors.Is(err, errNoRecord) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	covered, err = log.rotate()
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	t := st.track(name)
	t.cut = t.bytes
	st.mu.Unlock()
	return covered, nil
}

// SaveCheckpoint persists a checkpoint of a collecting column: snap —
// the column's complete in-memory state at the moment Rotate cut the
// WAL — is written as ckpt-<covered>.snap, after which the covered
// segments (and older checkpoints) are deleted. It does not seal the
// log: the column keeps collecting, and a recovery restores the
// checkpoint then replays only the segments above covered. A column
// finalized since the cut is a benign race (ErrColumnFinalized):
// final.snap already holds a superset of the state, so the checkpoint is
// simply dropped.
func (st *Store) SaveCheckpoint(name string, covered uint64, snap protocol.ColumnSnapshot) error {
	if snap.IsFinalized() {
		return fmt.Errorf("store: checkpoint of %q with a finalized snapshot; use Finalize", name)
	}
	if covered == 0 {
		// Nothing durable to cover — and ckpt-00000000 would collide
		// with removeCovered's keep-none sentinel.
		return nil
	}
	meta, _, err := st.lookupColumn(name)
	if err != nil {
		return err
	}
	data, err := snap.Encode()
	if err != nil {
		return fmt.Errorf("store: encoding checkpoint of %q: %w", name, err)
	}
	dir := st.colDir(meta.ID)
	if err := writeFileAtomic(filepath.Join(dir, ckptName(covered)), data, st.opts.NoSync); err != nil {
		return err
	}
	// The checkpoint is durable at this point; deleting the covered
	// files is cleanup, never correctness (recovery takes the newest
	// checkpoint and ignores covered segments), so a failed remove must
	// not be escalated as a failed checkpoint.
	_ = removeCovered(dir, covered, covered)
	st.mu.Lock()
	st.stats.Checkpoints++
	st.stats.BackgroundCheckpoints++
	st.stats.LastCheckpointUnixNano = time.Now().UnixNano()
	t := st.track(name)
	// Appends since the cut (the column lock is released after the
	// state capture) belong to the next checkpoint; only the cut bytes
	// are covered.
	t.bytes -= t.cut
	t.cut = 0
	st.mu.Unlock()
	return nil
}

// Recover replays the directory's durable state into r, distinct
// columns concurrently on kernel.RowApply and each column's events in
// append order on one goroutine (see Replayer). The result does not
// depend on the scheduling: the stats are summed in name order up to the
// first failing column, and the error returned is always that of the
// lowest-named failing column. It must be called exactly once, between
// Open and the first append; the service calls it before serving, so
// recovered columns exist before any request can reference them.
func (st *Store) Recover(r Replayer) (RecoveryStats, error) {
	st.mu.Lock()
	if st.recovered {
		st.mu.Unlock()
		return RecoveryStats{}, errors.New("store: Recover called twice")
	}
	st.recovered = true
	columns := make(map[string]*columnMeta, len(st.man.Columns))
	names := make([]string, 0, len(st.man.Columns))
	for name, meta := range st.man.Columns {
		columns[name] = meta
		names = append(names, name)
	}
	st.mu.Unlock()
	sort.Strings(names)

	cols := make([]RecoveryStats, len(names))
	errs := make([]error, len(names))
	kernel.RowApply(len(names), func(i int) {
		cols[i], errs[i] = st.recoverColumn(names[i], columns[names[i]], r)
	})
	var stats RecoveryStats
	for i, name := range names {
		stats.add(cols[i])
		if errs[i] != nil {
			return stats, fmt.Errorf("store: recovering column %q: %w", name, errs[i])
		}
	}
	return stats, nil
}

// recoverColumn replays one column into r and returns what it rebuilt.
func (st *Store) recoverColumn(name string, meta *columnMeta, r Replayer) (RecoveryStats, error) {
	var stats RecoveryStats
	dir := st.colDir(meta.ID)
	col := ColumnInfo{Name: name, Kind: meta.Kind, Attr: meta.Attr}

	// A final.snap is the terminal state and wins outright, even when a
	// crash between its write and the retirement left segments or
	// checkpoints behind; those are deleted here, as Finalize would have.
	if data, err := os.ReadFile(filepath.Join(dir, finalName)); err == nil {
		snap, err := st.decodeSnapshot(meta, data, true)
		if err != nil {
			return stats, fmt.Errorf("%s: %w", finalName, err)
		}
		if err := deliver(r, col, snap, Replayer.RecoverFinalized, Replayer.RecoverPlusFinalized); err != nil {
			return stats, err
		}
		st.mu.Lock()
		meta.Finalized = true
		st.mu.Unlock()
		_ = removeCovered(dir, ^uint64(0), 0)
		stats.FinalizedColumns++
		return stats, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return stats, err
	}

	ckptSeq, haveCkpt, err := latestCheckpoint(dir)
	if err != nil {
		return stats, err
	}
	if haveCkpt {
		data, err := os.ReadFile(filepath.Join(dir, ckptName(ckptSeq)))
		if err != nil {
			return stats, err
		}
		snap, err := st.decodeSnapshot(meta, data, false)
		if err != nil {
			return stats, fmt.Errorf("%s: %w", ckptName(ckptSeq), err)
		}
		if err := deliver(r, col, snap, Replayer.RecoverCheckpoint, Replayer.RecoverPlusCheckpoint); err != nil {
			return stats, err
		}
		stats.Checkpoints++
	}
	res, err := replaySegments(dir, ckptSeq, st.opts.NoSync, func(typ protocol.RecordType, payload []byte) error {
		switch typ {
		case protocol.RecordReports:
			if meta.Kind != protocol.KindJoin {
				return fmt.Errorf("%w: join report record in a %v column's log", protocol.ErrBadRecord, meta.Kind)
			}
			n, err := replayReports(payload, protocol.ReportSize, st.params, protocol.DecodeReportsPayload,
				func(reports []core.Report) error { return r.RecoverReports(col, reports) })
			stats.Reports += n
			return err
		case protocol.RecordMatrixReports:
			if meta.Kind != protocol.KindMatrix {
				return fmt.Errorf("%w: matrix report record in a %v column's log", protocol.ErrBadRecord, meta.Kind)
			}
			n, err := replayReports(payload, protocol.MatrixReportSize, st.matrixParams(), protocol.DecodeMatrixReportsPayload,
				func(reports []core.MatrixReport) error { return r.RecoverMatrixReports(col, reports) })
			stats.Reports += n
			return err
		case protocol.RecordPlusReports:
			if meta.Kind != protocol.KindPlus {
				return fmt.Errorf("%w: plus report record in a %v column's log", protocol.ErrBadRecord, meta.Kind)
			}
			group, body, err := protocol.SplitPlusReportsPayload(payload)
			if err != nil {
				return err
			}
			n, err := replayReports(body, protocol.ReportSize, st.params, protocol.DecodeReportsPayload,
				func(reports []core.Report) error { return r.RecoverPlusReports(col, group, reports) })
			stats.Reports += n
			return err
		case protocol.RecordPlusAdvance:
			if meta.Kind != protocol.KindPlus {
				return fmt.Errorf("%w: plus advance record in a %v column's log", protocol.ErrBadRecord, meta.Kind)
			}
			domain, theta, fi, err := protocol.DecodePlusAdvancePayload(payload)
			if err != nil {
				return err
			}
			if err := r.RecoverPlusAdvance(col, domain, theta, fi); err != nil {
				return err
			}
		case protocol.RecordMerge:
			snap, err := st.decodeSnapshot(meta, payload, false)
			if err != nil {
				return err
			}
			if err := deliver(r, col, snap, Replayer.RecoverMerge, Replayer.RecoverPlusMerge); err != nil {
				return err
			}
			stats.Merges++
		}
		return nil
	})
	if res.truncated {
		stats.TruncatedTails++
	}
	if err != nil {
		return stats, err
	}
	// Seed the background checkpointer with the replayed tail: segments
	// above the checkpoint are exactly the bytes the next checkpoint
	// would cover, so the bytes trigger keeps working across restarts.
	if pending, err := pendingWALBytes(dir, ckptSeq); err == nil && pending > 0 {
		st.mu.Lock()
		st.track(name).bytes += pending
		st.mu.Unlock()
	}
	stats.Columns++
	return stats, nil
}

// replayReports decodes one reports payload — itemSize wire bytes per
// report — a chunk of protocol.DefaultBatchSize reports at a time, so
// that every chunk decodes into a batch from the protocol pool, and
// hands each batch to deliver, which owns it from then on. A record of
// any size (one may hold 2^20 reports) thus replays through the buffers
// live ingest uses, with no slice of its own. It returns the reports
// delivered.
func replayReports[R, P any](payload []byte, itemSize int, expect P,
	decode func([]byte, P) ([]R, error), deliver func([]R) error) (int64, error) {
	chunk := protocol.DefaultBatchSize * itemSize
	var delivered int64
	for off := 0; off < len(payload); off += chunk {
		reports, err := decode(payload[off:min(off+chunk, len(payload))], expect)
		if err != nil {
			return delivered, fmt.Errorf("from report %d of the record: %w", off/itemSize, err)
		}
		n := int64(len(reports))
		if err := deliver(reports); err != nil {
			return delivered, err
		}
		delivered += n
	}
	return delivered, nil
}

// deliver hands a decoded snapshot to the Replayer method of its shape:
// the adapter between the store, which treats every snapshot alike, and
// the Replayer interface's per-shape method pairs.
func deliver(r Replayer, col ColumnInfo, snap protocol.ColumnSnapshot,
	plain func(Replayer, ColumnInfo, *protocol.Snapshot) error,
	plus func(Replayer, ColumnInfo, *protocol.PlusSnapshot) error) error {
	if ps, ok := snap.(*protocol.PlusSnapshot); ok {
		return plus(r, col, ps)
	}
	return plain(r, col, snap.(*protocol.Snapshot))
}

// decodeSnapshot decodes, validates, and fingerprint-checks one stored
// SNAP or PSNP payload against the column's kind and attribute-derived
// hash seeds — a log written under other families refuses to load
// rather than poisoning a sketch.
func (st *Store) decodeSnapshot(meta *columnMeta, data []byte, wantFinal bool) (protocol.ColumnSnapshot, error) {
	snap, err := protocol.DecodeColumnSnapshot(data)
	if err != nil {
		return nil, err
	}
	if snap.ColumnKind() != meta.Kind {
		return nil, fmt.Errorf("%w: %v snapshot in a %v column", protocol.ErrSnapshotMismatch, snap.ColumnKind(), meta.Kind)
	}
	if err := snap.CompatibleWithSlot(st.params, st.seed, meta.Attr); err != nil {
		return nil, err
	}
	if snap.IsFinalized() != wantFinal {
		return nil, fmt.Errorf("snapshot finalized=%v, want %v", snap.IsFinalized(), wantFinal)
	}
	return snap, nil
}

// Close releases open segment files, waits for the logs of finalized
// columns to be deleted, and then releases the directory. It does not
// checkpoint — that is the service's shutdown step, because only the
// service holds the column state a checkpoint captures. Close is
// idempotent.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	var firstErr error
	for _, log := range st.logs {
		if err := log.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The retirements take no lock of the store, and no new one starts
	// once closed is set, so this waits for a finite set of deletes.
	st.retiring.Wait()
	if err := st.lock.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
