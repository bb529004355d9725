package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"ldpjoin/internal/core"
)

// MaxWireK is the largest sketch depth the wire format can carry: the
// stream header stores K, and every report its row, as a u16.
const MaxWireK = 1<<16 - 1

// CheckWireK refuses a sketch depth the wire format cannot carry. Every
// stream reader and writer is built through it, and a server checks it
// at startup, so an oversized K fails once and by name instead of as a
// header mismatch on every stream.
func CheckWireK(k int) error {
	if k > MaxWireK {
		return fmt.Errorf("protocol: k=%d exceeds %d, the largest depth the wire format's u16 row field carries", k, MaxWireK)
	}
	return nil
}

// reportCodec is all the stream reader, the stream writer, the WAL
// payload codec and the batch pool know about a report type R checked
// against parameters P. The batch functions are the only per-type loops
// in the package: the generic code above them makes one call per chunk
// of reports, never one per report.
type reportCodec[R, P any] struct {
	size int    // wire bytes per report
	noun string // what error messages call one R
	pool *batchPool[R]
	// appendBatch encodes reports back to back onto dst.
	appendBatch func(dst []byte, reports []R) []byte
	// decodeBatch decodes src, a whole number of encoded reports, onto
	// dst, which must have spare capacity for them, checking every
	// report's indices against expect. On an error it returns dst
	// extended by the reports before the failing one.
	decodeBatch func(dst []R, src []byte, expect P) ([]R, error)
}

var (
	reportCodecJoin = reportCodec[core.Report, core.Params]{
		size: ReportSize, noun: "report", pool: reportBatches,
		appendBatch: AppendReportsPayload, decodeBatch: decodeReports,
	}
	reportCodecMatrix = reportCodec[core.MatrixReport, core.MatrixParams]{
		size: MatrixReportSize, noun: "matrix report", pool: matrixBatches,
		appendBatch: AppendMatrixReportsPayload, decodeBatch: decodeMatrixReports,
	}
)

// decodeReports is the join decodeBatch kernel: one pass from wire bytes
// to reports, validating as it goes. The sign of a report is a fair coin
// by construction (a ±1 Hadamard coefficient flipped by randomized
// response), so nothing here branches on it: the sign byte joins the
// indices in one never-taken validity test and becomes ±1 by arithmetic.
// dst must have room for len(src)/ReportSize more reports — growing it is
// the caller's job, which keeps the kernel allocation-free. The failing
// report, if any, is decoded again through DecodeReport, off the hot
// path, for its error.
func decodeReports(dst []core.Report, src []byte, expect core.Params) ([]core.Report, error) {
	base := len(dst)
	dst = dst[:base+len(src)/ReportSize]
	out, k, m := dst[base:], expect.K, expect.M
	for i := range out {
		sign, row, col := src[0], uint32(binary.BigEndian.Uint16(src[1:3])), binary.BigEndian.Uint32(src[3:7])
		if sign > 1 || int(row) >= k || int(col) >= m {
			return dst[:base+i], reportError(src, expect)
		}
		out[i] = core.Report{Y: int8(sign)<<1 - 1, Row: row, Col: col}
		src = src[ReportSize:]
	}
	return dst, nil
}

// reportError is the error of a report decodeReports refused.
func reportError(b []byte, expect core.Params) error {
	rep, err := DecodeReport(b)
	if err != nil {
		return err
	}
	return fmt.Errorf("protocol: indices (%d,%d) out of sketch bounds (%d,%d)",
		rep.Row, rep.Col, expect.K, expect.M)
}

// decodeMatrixReports is decodeReports for matrix reports.
func decodeMatrixReports(dst []core.MatrixReport, src []byte, expect core.MatrixParams) ([]core.MatrixReport, error) {
	base := len(dst)
	dst = dst[:base+len(src)/MatrixReportSize]
	out, k, m1, m2 := dst[base:], expect.K, expect.M1, expect.M2
	for i := range out {
		sign, row := src[0], uint32(binary.BigEndian.Uint16(src[1:3]))
		l1, l2 := binary.BigEndian.Uint32(src[3:7]), binary.BigEndian.Uint32(src[7:11])
		if sign > 1 || int(row) >= k || int(l1) >= m1 || int(l2) >= m2 {
			return dst[:base+i], matrixReportError(src, expect)
		}
		out[i] = core.MatrixReport{Y: int8(sign)<<1 - 1, Row: row, L1: l1, L2: l2}
		src = src[MatrixReportSize:]
	}
	return dst, nil
}

// matrixReportError is the error of a report decodeMatrixReports refused.
func matrixReportError(b []byte, expect core.MatrixParams) error {
	rep, err := DecodeMatrixReport(b)
	if err != nil {
		return err
	}
	return fmt.Errorf("protocol: indices (%d,%d,%d) out of sketch bounds (%d,%d,%d)",
		rep.Row, rep.L1, rep.L2, expect.K, expect.M1, expect.M2)
}

// reportWriter streams reports onto a connection: a client gateway in
// the paper's workflow. It buffers internally; call Flush (or Close on
// the underlying connection after Flush) when done.
type reportWriter[R any] struct {
	bw          *bufio.Writer
	buf         []byte
	one         [1]R
	appendBatch func([]byte, []R) []byte
}

// ReportWriter streams join (and plus) reports, MatrixReportWriter
// two-attribute middle-table reports.
type (
	ReportWriter       = reportWriter[core.Report]
	MatrixReportWriter = reportWriter[core.MatrixReport]
)

func newReportWriter[R, P any](w io.Writer, h Header, c *reportCodec[R, P]) (*reportWriter[R], error) {
	if err := CheckWireK(h.K); err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(w)
	if err := WriteHeader(bw, h); err != nil {
		return nil, err
	}
	return &reportWriter[R]{bw: bw, buf: make([]byte, 0, c.size), appendBatch: c.appendBatch}, nil
}

// NewReportWriter writes the stream header for the given parameters and
// returns a writer for the reports.
func NewReportWriter(w io.Writer, p core.Params) (*ReportWriter, error) {
	return newReportWriter(w, Header{Kind: KindJoin, K: p.K, M: p.M, Epsilon: p.Epsilon}, &reportCodecJoin)
}

// NewPlusReportWriter writes a KindPlus header — the join layout with
// the phase group in the m2 slot — and returns a writer for the
// reports. One stream carries reports for exactly one group: clients
// are assigned to a phase, they do not interleave.
func NewPlusReportWriter(w io.Writer, p core.Params, group PlusGroup) (*ReportWriter, error) {
	if group > PlusHigh {
		return nil, fmt.Errorf("protocol: invalid plus group %d", group)
	}
	return newReportWriter(w, Header{Kind: KindPlus, K: p.K, M: p.M, M2: int(group), Epsilon: p.Epsilon}, &reportCodecJoin)
}

// NewMatrixReportWriter writes a KindMatrix header for the given matrix
// parameters and returns a writer for the reports.
func NewMatrixReportWriter(w io.Writer, p core.MatrixParams) (*MatrixReportWriter, error) {
	return newReportWriter(w, Header{Kind: KindMatrix, K: p.K, M: p.M1, M2: p.M2, Epsilon: p.Epsilon}, &reportCodecMatrix)
}

// Write streams one report.
func (w *reportWriter[R]) Write(r R) error {
	w.one[0] = r
	w.buf = w.appendBatch(w.buf[:0], w.one[:])
	_, err := w.bw.Write(w.buf)
	return err
}

// Flush pushes buffered reports to the underlying writer.
func (w *reportWriter[R]) Flush() error { return w.bw.Flush() }

// DefaultBatchSize is the batch granularity a batch reader's Next falls
// back to when the caller passes max <= 0.
const DefaultBatchSize = 4096

// batchReader incrementally decodes a report stream into batches — the
// pull-based feed of the ingest columns. The header is validated
// against the expected parameters at construction; every report is
// bounds-checked before it is handed out, so a corrupt or hostile
// stream surfaces as an error, never as a panic in a fold.
type batchReader[R, P any] struct {
	br     *bufio.Reader
	h      Header
	expect P
	codec  *reportCodec[R, P]
	n      int
}

// BatchReader reads KindJoin and KindPlus streams, MatrixBatchReader
// KindMatrix streams.
type (
	BatchReader       = batchReader[core.Report, core.Params]
	MatrixBatchReader = batchReader[core.MatrixReport, core.MatrixParams]
)

// newBatchReader checks the header h read off a stream against want,
// the header a stream for expect must carry. br must be positioned at
// the first report.
func newBatchReader[R, P any](br *bufio.Reader, h, want Header, expect P, c *reportCodec[R, P]) (*batchReader[R, P], error) {
	if err := CheckWireK(want.K); err != nil {
		return nil, err
	}
	if h.Kind != want.Kind {
		return nil, fmt.Errorf("protocol: expected %v stream, got kind %d", want.Kind, h.Kind)
	}
	if h != want {
		return nil, fmt.Errorf("protocol: %v stream params (k=%d,m=%d,m2=%d,eps=%g) do not match server (k=%d,m=%d,m2=%d,eps=%g)",
			h.Kind, h.K, h.M, h.M2, h.Epsilon, want.K, want.M, want.M2, want.Epsilon)
	}
	return &batchReader[R, P]{br: br, h: h, expect: expect, codec: c}, nil
}

// NewBatchReader reads the stream header from r and validates it against
// the expected parameters.
func NewBatchReader(r io.Reader, expect core.Params) (*BatchReader, error) {
	br := bufio.NewReader(r)
	h, err := ReadHeader(br)
	if err != nil {
		return nil, err
	}
	return NewBatchReaderFrom(br, h, expect)
}

// NewBatchReaderFrom builds a batch reader over a stream whose header
// has already been read — the kind-dispatch path of a server that peeks
// at the header before choosing a column kind. br must be positioned at
// the first report. A join header's m2 slot carries nothing and is not
// compared.
func NewBatchReaderFrom(br *bufio.Reader, h Header, expect core.Params) (*BatchReader, error) {
	want := Header{Kind: KindJoin, K: expect.K, M: expect.M, M2: h.M2, Epsilon: expect.Epsilon}
	return newBatchReader(br, h, want, expect, &reportCodecJoin)
}

// NewPlusBatchReaderFrom builds a batch reader over a KindPlus stream
// whose header has already been read, returning the phase group the
// stream feeds. br must be positioned at the first report; reports
// decode and bounds-check exactly like a join stream.
func NewPlusBatchReaderFrom(br *bufio.Reader, h Header, expect core.Params) (*BatchReader, PlusGroup, error) {
	if h.Kind == KindPlus && h.M2 > int(PlusHigh) {
		return nil, 0, fmt.Errorf("protocol: invalid plus group %d", h.M2)
	}
	want := Header{Kind: KindPlus, K: expect.K, M: expect.M, M2: h.M2, Epsilon: expect.Epsilon}
	rd, err := newBatchReader(br, h, want, expect, &reportCodecJoin)
	return rd, PlusGroup(h.M2), err
}

// NewMatrixBatchReader reads the stream header from r and validates it
// against the expected matrix parameters.
func NewMatrixBatchReader(r io.Reader, expect core.MatrixParams) (*MatrixBatchReader, error) {
	br := bufio.NewReader(r)
	h, err := ReadHeader(br)
	if err != nil {
		return nil, err
	}
	return NewMatrixBatchReaderFrom(br, h, expect)
}

// NewMatrixBatchReaderFrom builds a matrix batch reader over a stream
// whose header has already been read; br must be positioned at the first
// report.
func NewMatrixBatchReaderFrom(br *bufio.Reader, h Header, expect core.MatrixParams) (*MatrixBatchReader, error) {
	want := Header{Kind: KindMatrix, K: expect.K, M: expect.M1, M2: expect.M2, Epsilon: expect.Epsilon}
	return newBatchReader(br, h, want, expect, &reportCodecMatrix)
}

// Header returns the validated stream header.
func (r *batchReader[R, P]) Header() Header { return r.h }

// Count returns the number of reports Next has delivered so far.
func (r *batchReader[R, P]) Count() int { return r.n }

// Next decodes up to max reports (DefaultBatchSize when max <= 0) into a
// batch drawn from the report type's batch pool; the caller owns it and
// may recycle it with PutReportBatch / PutMatrixBatch once the reports
// are consumed. At the clean end of the stream it returns (nil, io.EOF).
// A decode, bounds, or truncation error discards the partially decoded
// batch: a malformed stream never delivers reports beyond the last
// complete Next.
//
// Reports decode straight out of the buffered reader's window — no
// per-reader scratch, no copy — one decodeBatch call per window of
// whole reports.
func (r *batchReader[R, P]) Next(max int) ([]R, error) {
	if max <= 0 {
		max = DefaultBatchSize
	}
	c := r.codec
	window := r.br.Size() / c.size
	batch := c.pool.Get()
	for len(batch) < max {
		src, readErr := r.br.Peek(min(max-len(batch), window) * c.size)
		whole := len(src) - len(src)%c.size
		var err error
		batch, err = c.decodeBatch(slices.Grow(batch, whole/c.size), src[:whole], r.expect)
		switch {
		case err != nil: // a report that does not decode, or out of bounds
		case readErr == io.EOF && whole < len(src):
			err = io.ErrUnexpectedEOF // the stream ended inside a report
		case readErr != io.EOF:
			err = readErr // nil, or the stream broke
		}
		if err != nil {
			n := r.n + len(batch)
			c.pool.Put(batch)
			return nil, fmt.Errorf("%w (%s %d)", err, c.noun, n)
		}
		_, _ = r.br.Discard(whole) // cannot fail: whole bytes were just peeked
		if readErr == io.EOF {
			break
		}
	}
	if len(batch) == 0 {
		c.pool.Put(batch)
		return nil, io.EOF
	}
	r.n += len(batch)
	return batch, nil
}
