// Package protocol implements the transport layer of the paper's LDP
// workflow: the binary wire format clients use to stream perturbed
// reports to the aggregator, and batch decoders that feed a stream's
// reports into the server-side ingest columns (internal/ingest).
//
// The format is deliberately minimal — the whole point of LDPJoinSketch
// is that a report is one perturbed bit plus two small indices — and
// framing is fixed-size so a collector can stream without buffering
// logic:
//
//	header (once per stream):
//	  magic "LJSK" | version u8 | kind u8 | k u16 | m u32 | epsilon f64
//	report (repeated):
//	  y u8 (0 = −1, 1 = +1) | row u16 | col u32            (kind Join)
//	  y u8 | row u16 | l1 u32 | l2 u32                     (kind Matrix)
//	  y u8 | row u16 | col u32                             (kind Plus)
//
// Kind Plus streams reuse the Join report layout; the header's m2 slot
// (meaningless for a single-attribute sketch) carries the PlusGroup —
// sample (0), low (1) or high (2) — the whole stream feeds.
//
// All integers are big-endian. Streams are one-directional: a client (or
// client gateway) writes a header and any number of reports; the server
// reads until EOF.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ldpjoin/internal/core"
)

// Version is the wire-format version emitted by this package.
const Version = 1

// Kind discriminates report streams.
type Kind uint8

const (
	// KindJoin streams single-attribute reports (core.Report).
	KindJoin Kind = 1
	// KindMatrix streams two-attribute reports (core.MatrixReport).
	KindMatrix Kind = 2
	// KindPlus streams phase-tagged reports for a two-phase
	// LDPJoinSketch+ column. Reports are wire-identical to KindJoin;
	// the header's M2 slot (unused for single-attribute sketches)
	// carries the PlusGroup the stream belongs to.
	KindPlus Kind = 3
)

// PlusGroup tags which phase sketch a KindPlus stream or WAL record
// feeds: the phase-1 sample, or one of the two phase-2 FAP groups.
type PlusGroup uint8

const (
	// PlusSample is the phase-1 sample window (plain perturbation).
	PlusSample PlusGroup = 0
	// PlusLow is phase-2 group 1: the low-frequency target sketch.
	PlusLow PlusGroup = 1
	// PlusHigh is phase-2 group 2: the high-frequency target sketch.
	PlusHigh PlusGroup = 2
)

// String implements fmt.Stringer for diagnostics.
func (g PlusGroup) String() string {
	switch g {
	case PlusSample:
		return "sample"
	case PlusLow:
		return "low"
	case PlusHigh:
		return "high"
	}
	return fmt.Sprintf("plusgroup(%d)", uint8(g))
}

var magic = [4]byte{'L', 'J', 'S', 'K'}

// Header announces the protocol parameters of a report stream. The
// server checks it against its own configuration before accepting
// reports.
type Header struct {
	Kind    Kind
	K       int
	M       int // columns for KindJoin; M1 for KindMatrix
	M2      int // only for KindMatrix
	Epsilon float64
}

// ErrBadMagic is returned when a stream does not start with the expected
// magic bytes.
var ErrBadMagic = errors.New("protocol: bad stream magic")

// headerSize is the wire size of a stream header.
const headerSize = 24

// WriteHeader writes the stream header.
func WriteHeader(w io.Writer, h Header) error {
	buf := make([]byte, 0, headerSize)
	buf = append(buf, magic[:]...)
	buf = append(buf, Version, byte(h.Kind))
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.M))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.M2))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(h.Epsilon))
	_, err := w.Write(buf)
	return err
}

// ReadHeader reads and validates a stream header.
func ReadHeader(r io.Reader) (Header, error) {
	buf := make([]byte, headerSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Header{}, fmt.Errorf("protocol: reading header: %w", err)
	}
	if [4]byte(buf[:4]) != magic {
		return Header{}, ErrBadMagic
	}
	if buf[4] != Version {
		return Header{}, fmt.Errorf("protocol: unsupported version %d", buf[4])
	}
	h := Header{
		Kind:    Kind(buf[5]),
		K:       int(binary.BigEndian.Uint16(buf[6:8])),
		M:       int(binary.BigEndian.Uint32(buf[8:12])),
		M2:      int(binary.BigEndian.Uint32(buf[12:16])),
		Epsilon: math.Float64frombits(binary.BigEndian.Uint64(buf[16:24])),
	}
	if h.Kind != KindJoin && h.Kind != KindMatrix && h.Kind != KindPlus {
		return Header{}, fmt.Errorf("protocol: unknown stream kind %d", h.Kind)
	}
	return h, nil
}

// ReportSize is the wire size of one KindJoin report. The WAL layer
// uses it to split report batches into bounded records.
const ReportSize = 7

// MatrixReportSize is the wire size of one KindMatrix report. Like
// ReportSize it doubles as the WAL layer's record-splitting unit for
// matrix report batches.
const MatrixReportSize = 11

// AppendReport encodes one join report.
func AppendReport(buf []byte, r core.Report) []byte {
	buf = append(buf, encodeSign(r.Y))
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Row))
	buf = binary.BigEndian.AppendUint32(buf, r.Col)
	return buf
}

// DecodeReport decodes one join report from exactly ReportSize bytes.
func DecodeReport(buf []byte) (core.Report, error) {
	if len(buf) < ReportSize {
		return core.Report{}, fmt.Errorf("protocol: short report: %d bytes", len(buf))
	}
	y, err := decodeSign(buf[0])
	if err != nil {
		return core.Report{}, err
	}
	return core.Report{
		Y:   y,
		Row: uint32(binary.BigEndian.Uint16(buf[1:3])),
		Col: binary.BigEndian.Uint32(buf[3:7]),
	}, nil
}

// AppendMatrixReport encodes one matrix report.
func AppendMatrixReport(buf []byte, r core.MatrixReport) []byte {
	buf = append(buf, encodeSign(r.Y))
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Row))
	buf = binary.BigEndian.AppendUint32(buf, r.L1)
	buf = binary.BigEndian.AppendUint32(buf, r.L2)
	return buf
}

// DecodeMatrixReport decodes one matrix report from exactly
// MatrixReportSize bytes.
func DecodeMatrixReport(buf []byte) (core.MatrixReport, error) {
	if len(buf) < MatrixReportSize {
		return core.MatrixReport{}, fmt.Errorf("protocol: short matrix report: %d bytes", len(buf))
	}
	y, err := decodeSign(buf[0])
	if err != nil {
		return core.MatrixReport{}, err
	}
	return core.MatrixReport{
		Y:   y,
		Row: uint32(binary.BigEndian.Uint16(buf[1:3])),
		L1:  binary.BigEndian.Uint32(buf[3:7]),
		L2:  binary.BigEndian.Uint32(buf[7:11]),
	}, nil
}

func encodeSign(y int8) byte {
	if y == 1 {
		return 1
	}
	return 0
}

func decodeSign(b byte) (int8, error) {
	switch b {
	case 0:
		return -1, nil
	case 1:
		return 1, nil
	default:
		return 0, fmt.Errorf("protocol: invalid sign byte %d", b)
	}
}
