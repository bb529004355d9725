package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldpjoin/internal/core"
)

// wireKind is one report-stream kind as the table test below drives it:
// every closure goes through the exported reader, writer and WAL payload
// codec of that kind, so the one shared implementation is checked once
// per kind against bytes committed before it was shared.
type wireKind struct {
	name   string
	size   int // wire bytes per report
	record RecordType
	// stream encodes n deterministic in-bounds reports as a report
	// stream; payload as the kind's WAL record payload.
	stream  func(t *testing.T, n int) []byte
	payload func(n int) []byte
	// drain decodes a stream with Next(max) until EOF and returns the
	// reports re-encoded as a WAL payload (the canonical comparison
	// form) and how many there were.
	drain func(stream []byte, max int) ([]byte, int, error)
	// decodePayload decodes a WAL payload and re-encodes it.
	decodePayload func(payload []byte) ([]byte, error)
	// payloadPrefix is how many payload bytes precede the first report.
	payloadPrefix int
	// outOfBounds is the byte offset, within one encoded report, of the
	// most significant byte of each bounds-checked index.
	outOfBounds []int
}

var (
	goldenJoinParams   = core.Params{K: 4, M: 16, Epsilon: 2}
	goldenMatrixParams = core.MatrixParams{K: 3, M1: 8, M2: 4, Epsilon: 2}
)

func goldenJoinReports(n int) []core.Report {
	p := goldenJoinParams
	out := make([]core.Report, n)
	for i := range out {
		out[i] = core.Report{Y: int8(1 - 2*(i%2)), Row: uint32(i % p.K), Col: uint32((i * 5) % p.M)}
	}
	return out
}

func goldenMatrixReports(n int) []core.MatrixReport {
	p := goldenMatrixParams
	out := make([]core.MatrixReport, n)
	for i := range out {
		out[i] = core.MatrixReport{Y: int8(1 - 2*(i%2)), Row: uint32(i % p.K), L1: uint32((i * 3) % p.M1), L2: uint32((i * 7) % p.M2)}
	}
	return out
}

func wireKinds() []wireKind {
	jp, mp := goldenJoinParams, goldenMatrixParams
	joinStream := func(newWriter func(io.Writer) (*ReportWriter, error)) func(*testing.T, int) []byte {
		return func(t *testing.T, n int) []byte {
			var buf bytes.Buffer
			w, err := newWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range goldenJoinReports(n) {
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
	}
	return []wireKind{
		{
			name: "join", size: ReportSize, record: RecordReports,
			stream:  joinStream(func(w io.Writer) (*ReportWriter, error) { return NewReportWriter(w, jp) }),
			payload: func(n int) []byte { return AppendReportsPayload(nil, goldenJoinReports(n)) },
			drain: func(stream []byte, max int) ([]byte, int, error) {
				var got []core.Report
				rd, err := NewBatchReader(bytes.NewReader(stream), jp)
				_, n, err := drainStream(rd, err, max, func(r core.Report) { got = append(got, r) })
				return AppendReportsPayload(nil, got), n, err
			},
			decodePayload: func(payload []byte) ([]byte, error) {
				reports, err := DecodeReportsPayload(payload, jp)
				if err != nil {
					return nil, err
				}
				return AppendReportsPayload(nil, reports), nil
			},
			outOfBounds: []int{1, 3},
		},
		{
			name: "plus", size: ReportSize, record: RecordPlusReports,
			stream: joinStream(func(w io.Writer) (*ReportWriter, error) { return NewPlusReportWriter(w, jp, PlusHigh) }),
			payload: func(n int) []byte {
				return AppendReportsPayload([]byte{byte(PlusHigh)}, goldenJoinReports(n))
			},
			drain: func(stream []byte, max int) ([]byte, int, error) {
				br := bufio.NewReader(bytes.NewReader(stream))
				h, err := ReadHeader(br)
				if err != nil {
					return nil, 0, err
				}
				var got []core.Report
				rd, group, err := NewPlusBatchReaderFrom(br, h, jp)
				_, n, err := drainStream(rd, err, max, func(r core.Report) { got = append(got, r) })
				return AppendReportsPayload([]byte{byte(group)}, got), n, err
			},
			decodePayload: func(payload []byte) ([]byte, error) {
				group, reports, err := decodePlusReports(payload, jp)
				if err != nil {
					return nil, err
				}
				return AppendReportsPayload([]byte{byte(group)}, reports), nil
			},
			payloadPrefix: 1,
			outOfBounds:   []int{1, 3},
		},
		{
			name: "matrix", size: MatrixReportSize, record: RecordMatrixReports,
			stream: func(t *testing.T, n int) []byte {
				var buf bytes.Buffer
				w, err := NewMatrixReportWriter(&buf, mp)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range goldenMatrixReports(n) {
					if err := w.Write(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			},
			payload: func(n int) []byte { return AppendMatrixReportsPayload(nil, goldenMatrixReports(n)) },
			drain: func(stream []byte, max int) ([]byte, int, error) {
				var got []core.MatrixReport
				rd, err := NewMatrixBatchReader(bytes.NewReader(stream), mp)
				_, n, err := drainStream(rd, err, max, func(r core.MatrixReport) { got = append(got, r) })
				return AppendMatrixReportsPayload(nil, got), n, err
			},
			decodePayload: func(payload []byte) ([]byte, error) {
				reports, err := DecodeMatrixReportsPayload(payload, mp)
				if err != nil {
					return nil, err
				}
				return AppendMatrixReportsPayload(nil, reports), nil
			},
			outOfBounds: []int{1, 3, 7},
		},
	}
}

// TestWireGolden pins the report-stream and WAL-payload bytes of every
// kind to files generated before the per-type readers, writers and
// payload codecs were folded into one generic implementation, and runs
// the same malformed-input table over each kind: a truncated tail, a
// bad sign byte and an out-of-bounds index must fail Next (delivering
// nothing) and the payload decoder (with ErrBadRecord) alike, and any
// max, however large, returns what the stream holds.
func TestWireGolden(t *testing.T) {
	const goldenReports = 20
	for _, k := range wireKinds() {
		t.Run(k.name, func(t *testing.T) {
			stream := k.stream(t, goldenReports)
			record := AppendRecord(nil, k.record, k.payload(goldenReports))
			goldenBytes(t, k.name+".stream", stream)
			goldenBytes(t, k.name+".walrecord", record)

			// Round trip, at the golden size and across several reader
			// windows and batch boundaries.
			for _, n := range []int{goldenReports, 3*DefaultBatchSize + 17} {
				for _, max := range []int{0, 7, DefaultBatchSize, math.MaxInt} {
					got, count, err := k.drain(k.stream(t, n), max)
					if err != nil {
						t.Fatalf("n=%d max=%d: %v", n, max, err)
					}
					if count != n || !bytes.Equal(got, k.payload(n)) {
						t.Fatalf("n=%d max=%d: stream round trip lost reports (%d decoded)", n, max, count)
					}
				}
			}
			typ, payload, err := ReadRecord(bytes.NewReader(record))
			if err != nil || typ != k.record {
				t.Fatalf("golden record: type %d, err %v", typ, err)
			}
			if re, err := k.decodePayload(payload); err != nil || !bytes.Equal(re, payload) {
				t.Fatalf("payload round trip: err %v", err)
			}

			mustFail := func(what string, stream, payload []byte) {
				t.Helper()
				if _, _, err := k.drain(stream, 0); err == nil {
					t.Fatalf("%s: stream accepted", what)
				}
				if _, err := k.decodePayload(payload); !errors.Is(err, ErrBadRecord) {
					t.Fatalf("%s: payload err = %v, want ErrBadRecord", what, err)
				}
			}
			// Truncated tail: the stream errs with ErrUnexpectedEOF.
			mustFail("truncated tail", stream[:len(stream)-2], payload[:len(payload)-2])
			if _, _, err := k.drain(stream[:len(stream)-2], 0); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated tail: err = %v, want wrapped ErrUnexpectedEOF", err)
			}
			// Corrupt the last report, so everything before it decodes.
			last := (goldenReports - 1) * k.size
			corrupt := func(off int, b byte) ([]byte, []byte) {
				s, p := bytes.Clone(stream), bytes.Clone(payload)
				s[headerSize+last+off] = b
				p[k.payloadPrefix+last+off] = b
				return s, p
			}
			s, p := corrupt(0, 2)
			mustFail("bad sign byte", s, p)
			for _, off := range k.outOfBounds {
				s, p := corrupt(off, 0xff)
				mustFail("out-of-bounds index", s, p)
			}
		})
	}
}

// goldenBytes compares data with the committed testdata file (or
// rewrites the file under -update).
func goldenBytes(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestWireGolden -update ./internal/protocol` to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s: encoding diverged from golden bytes (%d vs %d bytes)", name, len(data), len(want))
	}
}

// TestWireDepthBound: the header stores K, and every report its row, as
// a u16, so every writer and reader constructor refuses a depth beyond
// MaxWireK by name instead of truncating it into a header that matches
// nothing.
func TestWireDepthBound(t *testing.T) {
	ok := core.Params{K: MaxWireK, M: 16, Epsilon: 2}
	var stream bytes.Buffer
	w, err := NewReportWriter(&stream, ok)
	if err != nil {
		t.Fatalf("k=%d refused by the writer: %v", MaxWireK, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchReader(bytes.NewReader(stream.Bytes()), ok); err != nil {
		t.Fatalf("k=%d refused by the reader: %v", MaxWireK, err)
	}
	big := core.Params{K: MaxWireK + 1, M: 16, Epsilon: 2}
	bigM := core.MatrixParams{K: big.K, M1: 16, M2: 16, Epsilon: 2}
	for name, err := range map[string]error{
		"join writer":   second(NewReportWriter(io.Discard, big)),
		"plus writer":   second(NewPlusReportWriter(io.Discard, big, PlusLow)),
		"matrix writer": second(NewMatrixReportWriter(io.Discard, bigM)),
		"join reader":   second(NewBatchReader(bytes.NewReader(stream.Bytes()), big)),
		"matrix reader": second(NewMatrixBatchReader(bytes.NewReader(stream.Bytes()), bigM)),
	} {
		if err == nil || !strings.Contains(err.Error(), "wire format") {
			t.Errorf("%s: k=%d: err = %v, want the wire bound named", name, big.K, err)
		}
	}
}

func second[T any](_ T, err error) error { return err }
