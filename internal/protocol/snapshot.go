// Snapshot codec: the cross-node serialization of aggregation state.
//
// LDPJoinSketch state is linear — an unfinalized cell is an exact
// integer sum of perturbed bits — so sketches built on different
// collectors merge exactly, with no accuracy and no privacy cost. The
// snapshot codec is what lets that state leave the process that built
// it: a collector exports its per-column aggregator, a federator
// imports and merges snapshots from many collectors, and the merged,
// then finalized, sketch is byte-identical to single-node ingestion of
// the concatenated report stream.
//
// The format is versioned, self-describing, and integrity-checked:
//
//	header (60 bytes, all integers big-endian):
//	  magic "SNAP" | version u8 | kind u8 | flags u8 | reserved u8 (0)
//	  k u32 | m1 u32 | m2 u32 (0 for kind Join)
//	  epsilon f64 | seedA i64 | seedB i64 (0 for kind Join)
//	  n f64 | count u64
//	payload, join:
//	  count = k·m1 report counts i32, row-major (k rows of m1)
//	payload, matrix:
//	  k u32 per-replica entry counts summing to count, then count
//	  entries (cell u32 = l1·m2 + l2, report count i32), replica by
//	  replica, cells strictly increasing within a replica
//	trailer:
//	  crc32 (IEEE) u32 over header + payload
//
// flags bit 0 marks a finalized snapshot; all other bits must be zero.
// Every kind holds report counts whether finalized or not — a finalized
// sketch is its counts — so the two forms of a kind differ only in the
// flag, and both are held to what some report stream could have
// produced.
//
// Every kind is version 2. Version 1 — float64 cells, dense for
// matrices and restored out of the Hadamard domain for finalized join
// state — is refused, not converted: that break is stated once, for
// every snapshot a process reads (a /merge body, a checkpoint, a
// final.snap, a merge record in a WAL).
//
// (k, m1, m2, epsilon, seedA, seedB) is the configuration fingerprint:
// two snapshots merge only when the fingerprints are equal, and an
// importer additionally checks the fingerprint against its own
// configuration before any cell can reach a local sketch. The encoding
// is canonical — re-encoding a decoded snapshot reproduces the input
// byte-for-byte — which is what the fuzz round-trip target checks.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
)

// snapVersion is the one snapshot-format version, for every kind.
const snapVersion = 2

var snapMagic = [4]byte{'S', 'N', 'A', 'P'}

// SnapshotKind discriminates the sketch shape a snapshot carries.
type SnapshotKind uint8

const (
	// SnapshotJoin is single-attribute LDPJoinSketch state (K×M cells).
	SnapshotJoin SnapshotKind = 1
	// SnapshotMatrix is two-attribute middle-table state (K replicas of
	// M1×M2 cells).
	SnapshotMatrix SnapshotKind = 2
)

const snapFlagFinalized = 1 << 0

// snapHeaderSize is the wire size of the snapshot header.
const snapHeaderSize = 4 + 1 + 1 + 1 + 1 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8

// snapTrailerSize is the wire size of the CRC trailer.
const snapTrailerSize = 4

// ErrBadSnapshot is returned when a byte stream is not a valid snapshot
// encoding (bad magic, version, structure, or checksum).
var ErrBadSnapshot = errors.New("protocol: bad snapshot encoding")

// ErrSnapshotMismatch is returned when a structurally valid snapshot was
// built under a different configuration fingerprint than the local one.
var ErrSnapshotMismatch = errors.New("protocol: snapshot configuration mismatch")

// Snapshot is the decoded (or to-be-encoded) form of exported
// aggregation state. Cells and Runs are shared, not copied: building a
// Snapshot from an aggregator is free, and encoding reads the live state
// — the exporter must be quiescent (drained) while encoding.
type Snapshot struct {
	Kind      SnapshotKind
	Finalized bool
	K         int
	M1        int
	M2        int // 0 for SnapshotJoin
	Epsilon   float64
	SeedA     int64
	SeedB     int64 // 0 for SnapshotJoin
	N         float64
	Counts    [][]int32            // SnapshotJoin: K rows of M1 report counts
	Runs      [][]core.MatrixEntry // SnapshotMatrix: K canonical count runs
}

// checkVersion refuses any version but snapVersion, naming the retired
// float64 encoding of the kind when that is what it meets.
func checkVersion(kind SnapshotKind, version byte) error {
	switch {
	case kind != SnapshotJoin && kind != SnapshotMatrix:
		return fmt.Errorf("%w: unknown snapshot kind %d", ErrBadSnapshot, kind)
	case version == snapVersion:
		return nil
	case kind == SnapshotMatrix && version == 1:
		return fmt.Errorf("%w: version 1 matrix snapshot (dense float64 cells) is no longer read: matrix state is sparse report counts since SNAP version 2, and the old encoding has no converter", ErrBadSnapshot)
	case kind == SnapshotJoin && version == 1:
		return fmt.Errorf("%w: version 1 join snapshot (float64 cells) is no longer read: join state is report counts since SNAP version 2, and the old encoding has no converter", ErrBadSnapshot)
	}
	return fmt.Errorf("%w: unsupported version %d for snapshot kind %d", ErrBadSnapshot, version, kind)
}

// entries returns the number of count entries across a matrix snapshot's
// replicas.
func (s *Snapshot) entries() int {
	n := 0
	for _, run := range s.Runs {
		n += len(run)
	}
	return n
}

// Fingerprint renders the configuration fingerprint for error messages.
func (s *Snapshot) Fingerprint() string {
	if s.Kind == SnapshotMatrix {
		return fmt.Sprintf("matrix(k=%d, m1=%d, m2=%d, ε=%g, seedA=%d, seedB=%d)",
			s.K, s.M1, s.M2, s.Epsilon, s.SeedA, s.SeedB)
	}
	return fmt.Sprintf("join(k=%d, m=%d, ε=%g, seed=%d)", s.K, s.M1, s.Epsilon, s.SeedA)
}

// Validate checks the structural invariants the codec and the restore
// constructors rely on.
func (s *Snapshot) Validate() error {
	switch s.Kind {
	case SnapshotJoin:
		if s.M2 != 0 || s.SeedB != 0 || s.Runs != nil {
			return fmt.Errorf("%w: join snapshot with matrix fields (m2=%d, seedB=%d)", ErrBadSnapshot, s.M2, s.SeedB)
		}
		p := core.Params{K: s.K, M: s.M1, Epsilon: s.Epsilon}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if err := core.CheckCounts(p, s.Counts, s.N); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return nil
	case SnapshotMatrix:
		p := core.MatrixParams{K: s.K, M1: s.M1, M2: s.M2, Epsilon: s.Epsilon}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if s.Counts != nil {
			return fmt.Errorf("%w: matrix snapshot with dense counts", ErrBadSnapshot)
		}
		if err := core.CheckMatrixRuns(p, s.Runs, s.N); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown snapshot kind %d", ErrBadSnapshot, s.Kind)
}

// EncodedSize returns the exact byte length EncodeSnapshot will produce.
func (s *Snapshot) EncodedSize() int {
	if s.Kind == SnapshotMatrix {
		return snapHeaderSize + 4*s.K + 8*s.entries() + snapTrailerSize
	}
	return SnapshotEncodedSize(core.Params{K: s.K, M: s.M1})
}

// SnapshotEncodedSize returns the wire size of a join snapshot under the
// given parameters — importers use it to bound request bodies before
// reading them.
func SnapshotEncodedSize(p core.Params) int {
	return snapHeaderSize + 4*p.K*p.M + snapTrailerSize
}

// SnapshotEncodedSizeMatrix returns the largest wire size of a matrix
// snapshot under the given matrix parameters: every cell of every
// replica non-zero, or MaxReports entries, whichever is fewer. An 8-byte
// entry is the size of a dense float64 cell, so no matrix snapshot is
// larger than the dense matrix would be.
func SnapshotEncodedSizeMatrix(p core.MatrixParams) int {
	entries := min(p.K*p.M1*p.M2, core.MaxReports)
	return snapHeaderSize + 4*p.K + 8*entries + snapTrailerSize
}

// SnapshotHeaderSize is the wire size of a snapshot header. Importers
// read exactly this much to learn a snapshot's kind (PeekSnapshotKind)
// before deciding how large a body to accept — a join snapshot is
// ~K·M cells, a matrix snapshot up to K·M² entries, so sizing the read
// by the declared kind keeps the per-request buffer proportional.
const SnapshotHeaderSize = snapHeaderSize

// PeekSnapshotKind inspects the leading bytes of an encoded snapshot
// and returns its kind without decoding anything else. The prefix must
// carry at least the magic, version, and kind bytes; nothing is
// authenticated here — DecodeSnapshot still validates the whole
// encoding, checksum included.
func PeekSnapshotKind(prefix []byte) (SnapshotKind, error) {
	if len(prefix) < 6 {
		return 0, fmt.Errorf("%w: %d bytes is too short to carry a kind", ErrBadSnapshot, len(prefix))
	}
	if [4]byte(prefix[:4]) != snapMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	kind := SnapshotKind(prefix[5])
	if err := checkVersion(kind, prefix[4]); err != nil {
		return 0, err
	}
	return kind, nil
}

// EncodeSnapshot validates and encodes a snapshot.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return appendSnapshot(make([]byte, 0, s.EncodedSize()), s), nil
}

// appendSnapshot appends the encoding of s, which must be valid.
func appendSnapshot(buf []byte, s *Snapshot) []byte {
	start := len(buf)
	count := uint64(s.K) * uint64(s.M1)
	if s.Kind == SnapshotMatrix {
		count = uint64(s.entries())
	}
	buf = append(buf, snapMagic[:]...)
	buf = append(buf, snapVersion, byte(s.Kind))
	var flags byte
	if s.Finalized {
		flags |= snapFlagFinalized
	}
	buf = append(buf, flags, 0)
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.M1))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.M2))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Epsilon))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.SeedA))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.SeedB))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.N))
	buf = binary.BigEndian.AppendUint64(buf, count)
	for _, row := range s.Counts {
		for _, c := range row {
			buf = binary.BigEndian.AppendUint32(buf, uint32(c))
		}
	}
	for _, run := range s.Runs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(run)))
	}
	for _, run := range s.Runs {
		for _, e := range run {
			buf = binary.BigEndian.AppendUint32(buf, e.Cell)
			buf = binary.BigEndian.AppendUint32(buf, uint32(e.Count))
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// DecodeSnapshot decodes and fully validates a snapshot: magic, version,
// checksum, structure, and the cells or counts. A decoded snapshot is
// safe to hand to the restore constructors.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < snapHeaderSize+snapTrailerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header and trailer", ErrBadSnapshot, len(data))
	}
	if [4]byte(data[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if err := checkVersion(SnapshotKind(data[5]), data[4]); err != nil {
		return nil, err
	}
	body, trailer := data[:len(data)-snapTrailerSize], data[len(data)-snapTrailerSize:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (computed %08x, stored %08x)", ErrBadSnapshot, got, want)
	}
	flags := data[6]
	if flags&^byte(snapFlagFinalized) != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %02x", ErrBadSnapshot, flags)
	}
	if data[7] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved byte", ErrBadSnapshot)
	}
	s := &Snapshot{
		Kind:      SnapshotKind(data[5]),
		Finalized: flags&snapFlagFinalized != 0,
		K:         int(binary.BigEndian.Uint32(data[8:12])),
		M1:        int(binary.BigEndian.Uint32(data[12:16])),
		M2:        int(binary.BigEndian.Uint32(data[16:20])),
		Epsilon:   math.Float64frombits(binary.BigEndian.Uint64(data[20:28])),
		SeedA:     int64(binary.BigEndian.Uint64(data[28:36])),
		SeedB:     int64(binary.BigEndian.Uint64(data[36:44])),
		N:         math.Float64frombits(binary.BigEndian.Uint64(data[44:52])),
	}
	count := binary.BigEndian.Uint64(data[52:60])
	payload := body[snapHeaderSize:]
	var err error
	if s.Kind == SnapshotMatrix {
		s.Runs, err = decodeRuns(payload, s.K, count)
	} else {
		s.Counts, err = decodeCounts(payload, s.K, s.M1, count)
	}
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeCounts reads a join payload of k rows of m counts, checking the
// declared count against both the payload and the dimensions before
// allocating anything; the one allocation holds every count, and each
// row is a capacity-capped window onto it. K and M each fit in 32 bits,
// so K·M cannot overflow a uint64.
func decodeCounts(payload []byte, k, m int, count uint64) ([][]int32, error) {
	if count > uint64(len(payload))/4 || count*4 != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: %d declared counts but %d payload bytes", ErrBadSnapshot, count, len(payload))
	}
	if count != uint64(k)*uint64(m) {
		return nil, fmt.Errorf("%w: %d counts for a %d×%d snapshot", ErrBadSnapshot, count, k, m)
	}
	if count == 0 { // Validate rejects k or m of 0
		return nil, nil
	}
	all := make([]int32, count)
	for i := range all {
		all[i] = int32(binary.BigEndian.Uint32(payload[4*i:]))
	}
	rows := make([][]int32, k)
	for j := range rows {
		rows[j] = all[j*m : (j+1)*m : (j+1)*m]
	}
	return rows, nil
}

// decodeRuns reads a matrix payload: k per-replica entry counts, then
// the entries. The declared total is checked against the payload length,
// and the per-replica counts against the total, before anything is
// allocated; the one allocation holds every entry, and each run is a
// capacity-capped window onto it.
func decodeRuns(payload []byte, k int, count uint64) ([][]core.MatrixEntry, error) {
	lens := uint64(4) * uint64(k) // k < 2^32: no overflow
	if lens > uint64(len(payload)) || count > (uint64(len(payload))-lens)/8 || lens+8*count != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: %d replicas and %d declared entries but %d payload bytes", ErrBadSnapshot, k, count, len(payload))
	}
	if k == 0 { // Validate rejects it
		return nil, nil
	}
	runs := make([][]core.MatrixEntry, k)
	all := make([]core.MatrixEntry, count)
	off := uint64(0)
	for j := range runs {
		n := uint64(binary.BigEndian.Uint32(payload[4*j:]))
		if n > count-off {
			return nil, fmt.Errorf("%w: replica entry counts exceed the %d declared entries", ErrBadSnapshot, count)
		}
		runs[j] = all[off : off+n : off+n]
		off += n
	}
	if off != count {
		return nil, fmt.Errorf("%w: replica entry counts sum to %d, not the %d declared", ErrBadSnapshot, off, count)
	}
	entries := payload[lens:]
	for i := range all {
		all[i] = core.MatrixEntry{
			Cell:  binary.BigEndian.Uint32(entries[8*i:]),
			Count: int32(binary.BigEndian.Uint32(entries[8*i+4:])),
		}
	}
	return runs, nil
}

// CompatibleWithJoin returns nil when the snapshot carries join state
// built under exactly (p, seed) — the precondition for merging it into
// local aggregation state.
func (s *Snapshot) CompatibleWithJoin(p core.Params, seed int64) error {
	if s.Kind != SnapshotJoin {
		return fmt.Errorf("%w: %s is not a join snapshot", ErrSnapshotMismatch, s.Fingerprint())
	}
	if s.K != p.K || s.M1 != p.M || s.Epsilon != p.Epsilon || s.SeedA != seed {
		return fmt.Errorf("%w: snapshot %s vs local join(k=%d, m=%d, ε=%g, seed=%d)",
			ErrSnapshotMismatch, s.Fingerprint(), p.K, p.M, p.Epsilon, seed)
	}
	return nil
}

// CompatibleWithMatrix returns nil when the snapshot carries matrix
// state built under exactly (p, seedA, seedB).
func (s *Snapshot) CompatibleWithMatrix(p core.MatrixParams, seedA, seedB int64) error {
	if s.Kind != SnapshotMatrix {
		return fmt.Errorf("%w: %s is not a matrix snapshot", ErrSnapshotMismatch, s.Fingerprint())
	}
	if s.K != p.K || s.M1 != p.M1 || s.M2 != p.M2 || s.Epsilon != p.Epsilon || s.SeedA != seedA || s.SeedB != seedB {
		return fmt.Errorf("%w: snapshot %s vs local matrix(k=%d, m1=%d, m2=%d, ε=%g, seedA=%d, seedB=%d)",
			ErrSnapshotMismatch, s.Fingerprint(), p.K, p.M1, p.M2, p.Epsilon, seedA, seedB)
	}
	return nil
}

// SnapshotOfAggregator wraps unfinalized join state as a snapshot
// without copying: the snapshot shares the aggregator's live rows, so
// the caller must not fold into the aggregator until the snapshot has
// been encoded. The aggregator must not be finalized.
func SnapshotOfAggregator(a *core.Aggregator) *Snapshot {
	if a.Done() {
		panic("protocol: SnapshotOfAggregator after Finalize")
	}
	p := a.Params()
	return &Snapshot{
		Kind:    SnapshotJoin,
		K:       p.K,
		M1:      p.M,
		Epsilon: p.Epsilon,
		SeedA:   a.Family().Seed(),
		N:       a.N(),
		Counts:  a.Rows(),
	}
}

// Aggregator restores a mergeable aggregator from an unfinalized join
// snapshot, rebuilding the hash family from the embedded seed. The
// returned aggregator takes ownership of the snapshot's counts.
func (s *Snapshot) Aggregator() (*core.Aggregator, error) {
	if s.Kind != SnapshotJoin {
		return nil, fmt.Errorf("%w: %s is not a join snapshot", ErrSnapshotMismatch, s.Fingerprint())
	}
	if s.Finalized {
		return nil, fmt.Errorf("%w: finalized snapshot cannot restore a mergeable aggregator", ErrSnapshotMismatch)
	}
	p := core.Params{K: s.K, M: s.M1, Epsilon: s.Epsilon}
	return core.RestoreAggregator(p, p.NewFamily(s.SeedA), s.Counts, s.N)
}

// SnapshotOfSketch wraps a finalized join sketch as a snapshot without
// copying (finalized sketches are immutable, so sharing counts is safe).
func SnapshotOfSketch(sk *core.Sketch) *Snapshot {
	p := sk.Params()
	return &Snapshot{
		Kind:      SnapshotJoin,
		Finalized: true,
		K:         p.K,
		M1:        p.M,
		Epsilon:   p.Epsilon,
		SeedA:     sk.Family().Seed(),
		N:         sk.N(),
		Counts:    sk.Counts(),
	}
}

// Sketch restores a finalized sketch from a finalized join snapshot.
func (s *Snapshot) Sketch() (*core.Sketch, error) {
	if s.Kind != SnapshotJoin {
		return nil, fmt.Errorf("%w: %s is not a join snapshot", ErrSnapshotMismatch, s.Fingerprint())
	}
	if !s.Finalized {
		return nil, fmt.Errorf("%w: unfinalized snapshot cannot restore a finalized sketch", ErrSnapshotMismatch)
	}
	p := core.Params{K: s.K, M: s.M1, Epsilon: s.Epsilon}
	return core.RestoreSketch(p, p.NewFamily(s.SeedA), s.Counts, s.N)
}

// SnapshotOfMatrixAggregator wraps unfinalized middle-table state as a
// snapshot without copying, compacting the aggregator's tails into its
// runs first. The aggregator must not be finalized, and must be
// quiescent until the snapshot is encoded.
func SnapshotOfMatrixAggregator(ma *core.MatrixAggregator) *Snapshot {
	if ma.Done() {
		panic("protocol: SnapshotOfMatrixAggregator after Finalize")
	}
	p := ma.Params()
	return &Snapshot{
		Kind:    SnapshotMatrix,
		K:       p.K,
		M1:      p.M1,
		M2:      p.M2,
		Epsilon: p.Epsilon,
		SeedA:   ma.FamilyA().Seed(),
		SeedB:   ma.FamilyB().Seed(),
		N:       ma.N(),
		Runs:    ma.Runs(),
	}
}

// MatrixAggregator restores a mergeable matrix aggregator from an
// unfinalized matrix snapshot.
func (s *Snapshot) MatrixAggregator() (*core.MatrixAggregator, error) {
	if s.Kind != SnapshotMatrix {
		return nil, fmt.Errorf("%w: %s is not a matrix snapshot", ErrSnapshotMismatch, s.Fingerprint())
	}
	if s.Finalized {
		return nil, fmt.Errorf("%w: finalized snapshot cannot restore a mergeable matrix aggregator", ErrSnapshotMismatch)
	}
	p := core.MatrixParams{K: s.K, M1: s.M1, M2: s.M2, Epsilon: s.Epsilon}
	famA := hashing.NewFamily(s.SeedA, p.K, p.M1)
	famB := hashing.NewFamily(s.SeedB, p.K, p.M2)
	return core.RestoreMatrixAggregator(p, famA, famB, s.Runs, s.N)
}

// SnapshotOfMatrixSketch wraps a finalized matrix sketch as a snapshot
// without copying.
func SnapshotOfMatrixSketch(ms *core.MatrixSketch) *Snapshot {
	p := ms.Params()
	return &Snapshot{
		Kind:      SnapshotMatrix,
		Finalized: true,
		K:         p.K,
		M1:        p.M1,
		M2:        p.M2,
		Epsilon:   p.Epsilon,
		SeedA:     ms.FamilyA().Seed(),
		SeedB:     ms.FamilyB().Seed(),
		N:         ms.N(),
		Runs:      ms.Runs(),
	}
}

// MatrixSketch restores a finalized matrix sketch from a finalized
// matrix snapshot.
func (s *Snapshot) MatrixSketch() (*core.MatrixSketch, error) {
	if s.Kind != SnapshotMatrix {
		return nil, fmt.Errorf("%w: %s is not a matrix snapshot", ErrSnapshotMismatch, s.Fingerprint())
	}
	if !s.Finalized {
		return nil, fmt.Errorf("%w: unfinalized snapshot cannot restore a finalized matrix sketch", ErrSnapshotMismatch)
	}
	p := core.MatrixParams{K: s.K, M1: s.M1, M2: s.M2, Epsilon: s.Epsilon}
	famA := hashing.NewFamily(s.SeedA, p.K, p.M1)
	famB := hashing.NewFamily(s.SeedB, p.K, p.M2)
	return core.RestoreMatrixSketch(p, famA, famB, s.Runs, s.N)
}
