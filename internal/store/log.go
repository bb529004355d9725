package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ldpjoin/internal/protocol"
)

// Segment, checkpoint, and finalized-sketch file names inside a column
// directory. Segments and checkpoints carry a sequence number; a
// checkpoint named after sequence S covers every segment with seq <= S,
// so recovery replays only the segments behind it and retirement may
// delete the covered ones at leisure — deleting is cleanup, never
// correctness.
const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".snap"
	finalName  = "final.snap"
)

func segName(seq uint64) string  { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }
func ckptName(seq uint64) string { return fmt.Sprintf("%s%08d%s", ckptPrefix, seq, ckptSuffix) }

// parseSeq extracts the sequence number from a segment or checkpoint
// file name, returning ok=false for foreign files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return seq, err == nil
}

// columnLog is the append side of one column's write-ahead log: a
// directory of numbered segment files, appended to in order, rotated at
// a size threshold. A log is sealed by checkpoint or finalize: appends
// arriving afterwards fail, which is what makes "everything the
// checkpoint does not cover is in a live segment" an invariant instead
// of a race.
type columnLog struct {
	dir      string
	segBytes int64
	noSync   bool

	mu      sync.Mutex
	nextSeq uint64   // seq the next opened segment will use
	lastSeq uint64   // highest seq that exists (0 = none)
	f       *os.File // open segment, nil until the first append
	size    int64
	sealed  bool
	broken  bool // a failed write could not be rolled back; refuse appends
	// frame is scratch for the chunks a report append frames: its next
	// callback runs under mu, so one buffer that lives as long as the log
	// serves every request instead of each allocating its own.
	frame []byte
}

// maxRetainedFrame bounds the scratch frame a log keeps between appends:
// one outsized request (a record may reach 7 MiB) must not pin its
// buffer to every column it ever touched.
const maxRetainedFrame = 1 << 20

// openColumnLog prepares the append side over an existing column
// directory. Appends always start a fresh segment (maxSeq+1): a torn
// tail left in an old segment by a crash must never have new records
// written behind it, because replay stops at the tear.
func openColumnLog(dir string, segBytes int64, noSync bool) (*columnLog, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var maxSeq uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok && seq > maxSeq {
			maxSeq = seq
		}
		if seq, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok && seq > maxSeq {
			maxSeq = seq
		}
	}
	return &columnLog{dir: dir, segBytes: segBytes, noSync: noSync, nextSeq: maxSeq + 1, lastSeq: maxSeq}, nil
}

// appendFunc writes a sequence of pre-framed record chunks — next
// returns the next chunk, nil when done, may reuse its buffer between
// calls, and runs under the log's lock — to the current segment,
// rotating first if the segment is over the size threshold, and syncs
// the file once at the end (unless the store runs NoSync): when
// appendFunc returns nil, every chunk survives a crash. Writing chunk by
// chunk keeps the caller from having to materialize a whole request's
// framing in memory.
func (l *columnLog) appendFunc(next func() []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return 0, ErrColumnFinalized
	}
	if l.broken {
		return 0, errors.New("store: column log poisoned by an earlier failed write")
	}
	if l.f != nil && l.size >= l.segBytes {
		if err := l.f.Close(); err != nil {
			return 0, err
		}
		l.f = nil
	}
	if l.f == nil {
		f, err := os.OpenFile(filepath.Join(l.dir, segName(l.nextSeq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, err
		}
		l.f = f
		l.size = 0
		l.lastSeq = l.nextSeq
		l.nextSeq++
		if !l.noSync {
			if err := syncDir(l.dir); err != nil {
				return 0, err
			}
		}
	}
	// Rotation happens only above, so this whole call lands in one
	// segment and callStart is a valid rollback point for all of it.
	callStart := l.size
	var written int64
	for chunk := next(); chunk != nil; chunk = next() {
		//ldpjoinvet:ignore lockio the WAL lock exists to serialize appends; holding it across the segment write is the design
		n, err := l.f.Write(chunk)
		l.size += int64(n)
		written += int64(n)
		if err != nil {
			// Roll the entire call back, not just the failing chunk: a
			// partial record would tear the segment under later acked
			// appends, and earlier whole records of this call were never
			// acknowledged either — left behind, a client retry plus a
			// crash would replay them twice. If the rollback itself
			// fails, poison the log so nothing can be written (and
			// falsely acknowledged) behind the tear.
			if rerr := l.rollback(callStart); rerr != nil {
				l.broken = true
				l.f.Close()
				l.f = nil
			}
			return 0, err
		}
	}
	if !l.noSync {
		//ldpjoinvet:ignore lockio fsync-before-ack under the WAL lock is the durability contract, not a hazard
		if err := l.f.Sync(); err != nil {
			// The records were written but not durably: the caller will
			// refuse the request, so they must not stay in the segment
			// for later acked appends to land behind (a crash would then
			// replay them alongside the client's retry — double counts).
			if rerr := l.rollback(callStart); rerr != nil {
				l.broken = true
				l.f.Close()
				l.f = nil
			}
			return 0, err
		}
	}
	return written, nil
}

// rollback restores the open segment to length `to`, repositioning the
// write offset there (Truncate does not move it) and syncing the cut.
func (l *columnLog) rollback(to int64) error {
	if err := l.f.Truncate(to); err != nil {
		return err
	}
	if _, err := l.f.Seek(to, io.SeekStart); err != nil {
		return err
	}
	l.size = to
	if l.noSync {
		return nil
	}
	return l.f.Sync()
}

// append writes one pre-framed record blob; see appendFunc.
func (l *columnLog) append(frames []byte) (int64, error) {
	done := false
	return l.appendFunc(func() []byte {
		if done {
			return nil
		}
		done = true
		return frames
	})
}

// seal closes the log for good: the checkpoint or finalized sketch
// about to be written covers everything appended so far, and nothing
// may land after it. It returns the highest segment sequence a
// checkpoint must cover.
func (l *columnLog) seal() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealed = true
	l.frame = nil
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		if err != nil {
			return l.lastSeq, err
		}
	}
	return l.lastSeq, nil
}

// rotate closes the open segment without sealing the log: the next
// append starts a fresh segment, so everything appended so far lives in
// segments with seq <= the returned value. It is the background
// checkpointer's cut point — unlike seal, the column keeps accepting
// appends afterwards, which is what lets a checkpoint run while ingest
// continues. Returns the highest segment seq that exists (0 = the
// column has no durable records yet).
func (l *columnLog) rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return 0, ErrColumnFinalized
	}
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		if err != nil {
			return l.lastSeq, err
		}
	}
	return l.lastSeq, nil
}

// pendingWALBytes sums the sizes of the segments with seq > after: the
// bytes a recovery would have to replay, which seeds the background
// checkpointer's bytes-since-checkpoint counter across a restart.
func pendingWALBytes(dir string, after uint64) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok && seq > after {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}

// close releases the open segment without sealing (process shutdown
// that is not a checkpoint — i.e. the crash path in tests).
func (l *columnLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		return err
	}
	return nil
}

// replayResult summarizes one column's log replay.
type replayResult struct {
	records   int64
	truncated bool // a torn tail was cut from the last segment
}

// replaySegments replays every record in the segments with seq > after,
// in segment then record order, through handle. A bad record in the
// last segment is treated as the torn tail of a crashed append: the
// segment is truncated to its last whole record and replay ends
// cleanly. A bad record in any earlier segment — which no crash can
// produce, because a new segment is only ever started by a process that
// never got to append behind the tear — is corruption and fails the
// replay.
//
// Every record of the column is read through one buffer, so the payload
// handle receives is valid only until handle returns; and a record is
// never read past the bytes its segment really holds, so a torn or
// hostile length field costs no more memory than the segment's size.
func replaySegments(dir string, after uint64, noSync bool, handle func(typ protocol.RecordType, payload []byte) error) (replayResult, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return replayResult{}, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok && seq > after {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	var res replayResult
	var rr protocol.RecordReader // the column's one record buffer
	br := bufio.NewReader(nil)
	for i, seq := range seqs {
		last := i == len(seqs)-1
		path := filepath.Join(dir, segName(seq))
		f, err := os.Open(path)
		if err != nil {
			return res, err
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return res, err
		}
		br.Reset(f)
		rr.Reset(br, info.Size())
		var good int64 // bytes of whole records read so far
		for {
			typ, payload, err := rr.Next()
			if err == io.EOF {
				break
			}
			if errors.Is(err, protocol.ErrBadRecord) {
				f.Close()
				if !last {
					return res, fmt.Errorf("store: segment %s: %w", path, err)
				}
				// Torn tail: cut the segment back to its last whole record
				// so the next recovery sees a clean log — and sync the
				// cut, because once this process appends to a fresh
				// segment, this one is no longer last, where a
				// resurrected tear would read as corruption instead.
				if err := truncateSync(path, good, noSync); err != nil {
					return res, fmt.Errorf("store: truncating torn tail of %s: %w", path, err)
				}
				res.truncated = true
				return res, nil
			}
			if err != nil {
				f.Close()
				return res, err
			}
			if err := handle(typ, payload); err != nil {
				f.Close()
				return res, fmt.Errorf("store: segment %s: %w", path, err)
			}
			good += int64(protocol.RecordOverhead + len(payload))
			res.records++
		}
		f.Close()
	}
	return res, nil
}

// removeCovered deletes the segments and checkpoints a newer checkpoint
// (or the finalized sketch) has made redundant: segments with
// seq <= covered and checkpoints older than keepCkpt (pass keepCkpt = 0
// to drop every checkpoint — a column's first segment is seq 1, so no
// real checkpoint ever covers seq 0). A checkpoint newer than keepCkpt
// stays: two background checkpoints can finish out of order, and the
// newer one has already deleted the segments only it still covers.
// Failures are returned but recoverable: recovery picks the newest
// checkpoint and ignores covered segments, so leftover files cost disk,
// not correctness.
func removeCovered(dir string, covered uint64, keepCkpt uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok && seq <= covered {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if seq, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok && (seq < keepCkpt || keepCkpt == 0) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// latestCheckpoint returns the highest-seq checkpoint in the column
// directory (seq, ok). Older checkpoints may coexist after a crash
// between checkpoint write and cleanup; the newest one always covers a
// superset of the state, so it wins.
func latestCheckpoint(dir string) (uint64, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, false, err
	}
	var best uint64
	found := false
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok && (!found || seq > best) {
			best, found = seq, true
		}
	}
	return best, found, nil
}

// truncateSync truncates path to size and fsyncs the result so the new
// length survives power loss, not just a process crash.
func truncateSync(path string, size int64, noSync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	if noSync {
		return nil
	}
	return f.Sync()
}

// writeFileAtomic writes data to path via a temp file + rename, syncing
// the file and the directory so the rename is durable, not just atomic.
func writeFileAtomic(path string, data []byte, noSync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if !noSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if noSync {
		return nil
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames and creates inside it
// durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
