package protocol

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"ldpjoin/internal/core"
)

func TestHeaderRoundTrip(t *testing.T) {
	cases := []Header{
		{Kind: KindJoin, K: 18, M: 1024, Epsilon: 4},
		{Kind: KindMatrix, K: 9, M: 256, M2: 512, Epsilon: 0.5},
	}
	for _, h := range cases {
		var buf bytes.Buffer
		if err := WriteHeader(&buf, h); err != nil {
			t.Fatal(err)
		}
		got, err := ReadHeader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v, want %+v", got, h)
		}
	}
}

func TestHeaderBadMagic(t *testing.T) {
	_, err := ReadHeader(bytes.NewReader(append([]byte("NOPE"), make([]byte, 22)...)))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestHeaderBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, Header{Kind: KindJoin, K: 1, M: 2, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99
	if _, err := ReadHeader(bytes.NewReader(b)); err == nil {
		t.Fatal("expected version error")
	}
}

func TestHeaderBadKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, Header{Kind: 42, K: 1, M: 2, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeader(&buf); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestHeaderTruncated(t *testing.T) {
	if _, err := ReadHeader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("expected error for truncated header")
	}
}

func TestReportRoundTripProperty(t *testing.T) {
	f := func(yBit bool, row uint16, col uint32) bool {
		y := int8(-1)
		if yBit {
			y = 1
		}
		in := core.Report{Y: y, Row: uint32(row), Col: col}
		out, err := DecodeReport(AppendReport(nil, in))
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixReportRoundTripProperty(t *testing.T) {
	f := func(yBit bool, row uint16, l1, l2 uint32) bool {
		y := int8(-1)
		if yBit {
			y = 1
		}
		in := core.MatrixReport{Y: y, Row: uint32(row), L1: l1, L2: l2}
		out, err := DecodeMatrixReport(AppendMatrixReport(nil, in))
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeReportErrors(t *testing.T) {
	if _, err := DecodeReport([]byte{1, 2}); err == nil {
		t.Fatal("expected short-buffer error")
	}
	bad := AppendReport(nil, core.Report{Y: 1, Row: 3, Col: 4})
	bad[0] = 7
	if _, err := DecodeReport(bad); err == nil {
		t.Fatal("expected sign error")
	}
	if _, err := DecodeMatrixReport([]byte{1}); err == nil {
		t.Fatal("expected short matrix buffer error")
	}
	badM := AppendMatrixReport(nil, core.MatrixReport{Y: -1})
	badM[0] = 9
	if _, err := DecodeMatrixReport(badM); err == nil {
		t.Fatal("expected matrix sign error")
	}
}

func TestReadStreamParamsMismatch(t *testing.T) {
	var buf bytes.Buffer
	p := core.Params{K: 4, M: 64, Epsilon: 2}
	w, err := NewReportWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	other := core.Params{K: 8, M: 64, Epsilon: 2}
	if _, _, err := readStream(&buf, other, func(core.Report) {}); err == nil {
		t.Fatal("expected params mismatch error")
	}
}

func TestReadStreamWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, Header{Kind: KindMatrix, K: 1, M: 2, M2: 2, Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readStream(&buf, core.Params{K: 1, M: 2, Epsilon: 1}, func(core.Report) {}); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestReadStreamTruncatedReport(t *testing.T) {
	var buf bytes.Buffer
	p := core.Params{K: 2, M: 16, Epsilon: 1}
	w, err := NewReportWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(core.Report{Y: 1, Row: 1, Col: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	_, n, err := readStream(bytes.NewReader(trunc), p, func(core.Report) {})
	if err == nil {
		t.Fatal("expected truncation error")
	}
	if n != 0 {
		t.Fatalf("read %d reports from truncated stream", n)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want wrapped ErrUnexpectedEOF", err)
	}
}

func TestWriterReaderRoundTripMany(t *testing.T) {
	var buf bytes.Buffer
	p := core.Params{K: 18, M: 1024, Epsilon: 4}
	w, err := NewReportWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]core.Report, 5000)
	for i := range want {
		y := int8(1)
		if i%3 == 0 {
			y = -1
		}
		want[i] = core.Report{Y: y, Row: uint32(i % 18), Col: uint32(i % 1024)}
		if err := w.Write(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []core.Report
	h, n, err := readStream(&buf, p, func(r core.Report) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	if h.K != 18 || n != len(want) {
		t.Fatalf("header/count mismatch: %+v, n=%d", h, n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
