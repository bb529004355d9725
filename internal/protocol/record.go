// WAL record framing: the on-disk unit of the durable column store
// (internal/store). A write-ahead log is a sequence of self-delimiting,
// integrity-checked records; each record carries one durable event of a
// collecting column — a batch of accepted join or matrix reports in the
// wire formats above, or a SNAP snapshot folded in from another
// collector.
//
//	record (all integers big-endian):
//	  length u32 (payload bytes) | type u8 | payload | crc32 (IEEE) u32
//
// The CRC covers length, type, and payload, so a torn length field is
// caught just like a torn payload. The framing is deliberately
// tail-fragile and body-strict: a reader distinguishes only "clean end
// of log" (io.EOF before the first header byte) from "bad record"
// (ErrBadRecord for everything else — short header, unknown type,
// oversize length, short payload, checksum mismatch). The store treats
// a bad record at the tail of the last segment as a torn write left by
// a crash — it truncates the segment to the last whole record and keeps
// going — and a bad record anywhere else as real corruption. Like the
// snapshot codec, the encoding is canonical: re-encoding an accepted
// record reproduces the consumed bytes exactly (FuzzWALRecord).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"ldpjoin/internal/core"
)

// RecordType discriminates WAL records.
type RecordType uint8

const (
	// RecordReports carries accepted join reports: length/7 wire-format
	// reports (7 bytes each, see AppendReport) back to back.
	RecordReports RecordType = 1
	// RecordMerge carries one SNAP-encoded unfinalized snapshot that was
	// merged into the column (POST /merge). The snapshot's own kind byte
	// says whether it is join or matrix state.
	RecordMerge RecordType = 2
	// RecordMatrixReports carries accepted matrix (middle-table) reports:
	// length/11 wire-format reports (11 bytes each, see
	// AppendMatrixReport) back to back.
	RecordMatrixReports RecordType = 3
	// RecordPlusReports carries accepted phase-tagged reports of a plus
	// column: one PlusGroup byte, then (length-1)/7 wire-format join
	// reports back to back.
	RecordPlusReports RecordType = 4
	// RecordPlusAdvance marks a plus column's phase boundary: the
	// advance parameters and the frozen frequent-item set (Algorithm 3,
	// end of phase 1). Replaying it restores the exact FI phase 2 was
	// keyed by, independent of the phase-1 aggregate it was computed
	// from.
	RecordPlusAdvance RecordType = 5
)

// MaxPlusFI bounds the frequent-item set a RecordPlusAdvance payload
// (or a PSNP snapshot) may carry. θ > 0 already bounds |FI| by 1/θ per
// side in any honest run; the cap keeps a corrupt count field from
// allocating gigabytes before validation.
const MaxPlusFI = 1 << 20

// MaxRecordPayload bounds a record's payload. It exists so a torn or
// hostile length field cannot make a replayer allocate gigabytes before
// the checksum has had a chance to reject the record; writers split
// larger events across records (report batches split trivially) or
// refuse them (a snapshot above the bound has no valid split). The
// bound must admit one whole matrix snapshot — the largest unsplittable
// event — at realistic parameters: at the default deployment (k=18,
// m=1024) one with every cell non-zero encodes to ~151 MiB, hence
// 256 MiB.
const MaxRecordPayload = 1 << 28 // 256 MiB

// recordHeaderSize is length u32 + type u8.
const recordHeaderSize = 5

// recordTrailerSize is the CRC32 trailer.
const recordTrailerSize = 4

// RecordOverhead is the framing cost per record beyond the payload.
const RecordOverhead = recordHeaderSize + recordTrailerSize

// ErrBadRecord is returned for any byte sequence that is not a whole,
// checksummed WAL record: a torn tail and real corruption both surface
// as this error — where in the log it happened decides which it is.
var ErrBadRecord = errors.New("protocol: bad WAL record")

// AppendRecord frames payload as one WAL record and appends it to buf.
// The payload must not exceed MaxRecordPayload (the writer's bug if it
// does, hence the panic).
func AppendRecord(buf []byte, typ RecordType, payload []byte) []byte {
	start := len(buf)
	buf = BeginRecord(buf, typ)
	buf = append(buf, payload...)
	return FinishRecord(buf, start)
}

// BeginRecord and FinishRecord frame a record whose payload the caller
// encodes in place, with no second buffer to copy it out of: BeginRecord
// appends the header of a record of type typ to buf, the caller appends
// the payload, and FinishRecord — given the len(buf) BeginRecord was
// called at — fills in the payload length and appends the checksum.
func BeginRecord(buf []byte, typ RecordType) []byte {
	return append(buf, 0, 0, 0, 0, byte(typ))
}

// FinishRecord completes the record BeginRecord opened at buf[start:].
// Like AppendRecord it panics on a payload over MaxRecordPayload.
func FinishRecord(buf []byte, start int) []byte {
	length := len(buf) - start - recordHeaderSize
	if length > MaxRecordPayload {
		panic(fmt.Sprintf("protocol: WAL record payload %d exceeds %d bytes", length, MaxRecordPayload))
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(length))
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// ReadRecord reads one record from r. It returns io.EOF at the clean
// end of the log (no header byte left) and an error wrapping
// ErrBadRecord for anything that is not a whole valid record. On
// success the record consumed exactly RecordOverhead+len(payload)
// bytes; the returned payload is freshly allocated and owned by the
// caller.
func ReadRecord(r io.Reader) (RecordType, []byte, error) {
	rr := RecordReader{r: r, left: math.MaxInt64}
	return rr.Next()
}

// RecordReader is ReadRecord for a replayer, which reads record after
// record and knows how long its log is: every payload lands in one
// buffer the reader keeps and grows, so replaying a log of any length
// allocates one buffer, and a length field is believed no further than
// the bytes the log really has left. The zero value reads nothing; Reset
// points it at a log.
type RecordReader struct {
	r    io.Reader
	left int64 // bytes r can still deliver
	hdr  [recordHeaderSize]byte
	buf  []byte
}

// Reset points the reader at r, a log (or the rest of one) of size
// bytes, keeping its buffer.
func (rr *RecordReader) Reset(r io.Reader, size int64) { rr.r, rr.left = r, size }

// Next reads the next record, with ReadRecord's results, except that the
// payload is valid only until the next call. A length field claiming
// more than the log has left is a bad record by arithmetic alone and is
// refused before anything is allocated or read: a torn or hostile
// length costs a replayer no more memory than the bytes really there.
func (rr *RecordReader) Next() (RecordType, []byte, error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: torn header: %v", ErrBadRecord, err)
	}
	length := binary.BigEndian.Uint32(rr.hdr[:4])
	typ := RecordType(rr.hdr[4])
	if length > MaxRecordPayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadRecord, length, MaxRecordPayload)
	}
	if typ < RecordReports || typ > RecordPlusAdvance {
		return 0, nil, fmt.Errorf("%w: unknown record type %d", ErrBadRecord, typ)
	}
	need := int(length) + recordTrailerSize
	if int64(need) > rr.left-recordHeaderSize {
		return 0, nil, fmt.Errorf("%w: torn payload: length %d exceeds the %d bytes left in the log",
			ErrBadRecord, length, max(rr.left-RecordOverhead, 0))
	}
	rr.buf = slices.Grow(rr.buf[:0], need)[:need]
	if _, err := io.ReadFull(rr.r, rr.buf); err != nil {
		return 0, nil, fmt.Errorf("%w: torn payload: %v", ErrBadRecord, err)
	}
	payload, trailer := rr.buf[:length], rr.buf[length:]
	crc := crc32.ChecksumIEEE(rr.hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if want := binary.BigEndian.Uint32(trailer); crc != want {
		return 0, nil, fmt.Errorf("%w: checksum mismatch (computed %08x, stored %08x)", ErrBadRecord, crc, want)
	}
	rr.left -= int64(recordHeaderSize + need)
	return typ, payload, nil
}

// AppendReportsPayload encodes a batch of reports as a RecordReports
// payload: the same 7-byte wire encoding the report streams use.
func AppendReportsPayload(buf []byte, reports []core.Report) []byte {
	for _, r := range reports {
		buf = AppendReport(buf, r)
	}
	return buf
}

// AppendMatrixReportsPayload encodes a batch of matrix reports as a
// RecordMatrixReports payload: the same 11-byte wire encoding the
// KindMatrix report streams use.
func AppendMatrixReportsPayload(buf []byte, reports []core.MatrixReport) []byte {
	for _, r := range reports {
		buf = AppendMatrixReport(buf, r)
	}
	return buf
}

// decodePayload decodes a reports payload with the stream reader's own
// decodeBatch, so every report is bounds-checked against the expected
// parameters exactly like a streamed one — a corrupted-but-checksum-
// valid log (or a log written under other parameters) surfaces as an
// error, never as out-of-range state in a sketch. Payloads of up to
// DefaultBatchSize reports — the size the ingest path writes, so the
// common case during WAL replay — decode into a pooled batch the caller
// may recycle.
func decodePayload[R, P any](payload []byte, expect P, c *reportCodec[R, P]) ([]R, error) {
	if len(payload)%c.size != 0 {
		return nil, fmt.Errorf("%w: %ss payload of %d bytes is not a multiple of %d", ErrBadRecord, c.noun, len(payload), c.size)
	}
	var reports []R
	if n := len(payload) / c.size; n <= DefaultBatchSize {
		reports = c.pool.Get()
	} else {
		reports = make([]R, 0, n)
	}
	reports, err := c.decodeBatch(reports, payload, expect)
	if err != nil {
		n := len(reports)
		c.pool.Put(reports)
		return nil, fmt.Errorf("%w: %v (%s %d)", ErrBadRecord, err, c.noun, n)
	}
	return reports, nil
}

// DecodeReportsPayload decodes a RecordReports payload; recycle the
// result with PutReportBatch.
func DecodeReportsPayload(payload []byte, expect core.Params) ([]core.Report, error) {
	return decodePayload(payload, expect, &reportCodecJoin)
}

// DecodeMatrixReportsPayload decodes a RecordMatrixReports payload;
// recycle the result with PutMatrixBatch.
func DecodeMatrixReportsPayload(payload []byte, expect core.MatrixParams) ([]core.MatrixReport, error) {
	return decodePayload(payload, expect, &reportCodecMatrix)
}

// SplitPlusReportsPayload checks the group byte a RecordPlusReports
// payload leads with and returns it with the rest: a RecordReports
// payload, for DecodeReportsPayload, whole or in slices.
func SplitPlusReportsPayload(payload []byte) (PlusGroup, []byte, error) {
	if len(payload) < 1 {
		return 0, nil, fmt.Errorf("%w: empty plus reports payload", ErrBadRecord)
	}
	group := PlusGroup(payload[0])
	if group > PlusHigh {
		return 0, nil, fmt.Errorf("%w: invalid plus group %d", ErrBadRecord, group)
	}
	return group, payload[1:], nil
}

// AppendPlusAdvancePayload encodes a RecordPlusAdvance payload:
//
//	domain u64 | theta f64 | count u32 | fi u64 × count
//
// fi must be sorted strictly ascending — the canonical form every
// layer stores FI in.
func AppendPlusAdvancePayload(buf []byte, domain uint64, theta float64, fi []uint64) []byte {
	buf = binary.BigEndian.AppendUint64(buf, domain)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(theta))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(fi)))
	for _, d := range fi {
		buf = binary.BigEndian.AppendUint64(buf, d)
	}
	return buf
}

// DecodePlusAdvancePayload decodes and validates a RecordPlusAdvance
// payload: θ must lie in (0,1), the FI count within MaxPlusFI, and the
// items strictly ascending and below the domain.
func DecodePlusAdvancePayload(payload []byte) (domain uint64, theta float64, fi []uint64, err error) {
	if len(payload) < 20 {
		return 0, 0, nil, fmt.Errorf("%w: plus advance payload of %d bytes is too short", ErrBadRecord, len(payload))
	}
	domain = binary.BigEndian.Uint64(payload[0:8])
	theta = math.Float64frombits(binary.BigEndian.Uint64(payload[8:16]))
	count := binary.BigEndian.Uint32(payload[16:20])
	if domain == 0 {
		return 0, 0, nil, fmt.Errorf("%w: plus advance domain must be positive", ErrBadRecord)
	}
	if !(theta > 0 && theta < 1) {
		return 0, 0, nil, fmt.Errorf("%w: plus advance theta %v outside (0,1)", ErrBadRecord, theta)
	}
	if count > MaxPlusFI {
		return 0, 0, nil, fmt.Errorf("%w: plus advance FI count %d exceeds %d", ErrBadRecord, count, MaxPlusFI)
	}
	if len(payload) != 20+8*int(count) {
		return 0, 0, nil, fmt.Errorf("%w: plus advance payload of %d bytes does not match FI count %d", ErrBadRecord, len(payload), count)
	}
	fi = make([]uint64, count)
	for i := range fi {
		fi[i] = binary.BigEndian.Uint64(payload[20+8*i:])
		if fi[i] >= domain {
			return 0, 0, nil, fmt.Errorf("%w: frequent item %d outside domain %d", ErrBadRecord, fi[i], domain)
		}
		if i > 0 && fi[i] <= fi[i-1] {
			return 0, 0, nil, fmt.Errorf("%w: frequent items not strictly ascending at index %d", ErrBadRecord, i)
		}
	}
	return domain, theta, fi, nil
}
