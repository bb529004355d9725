package protocol

import (
	"bytes"
	"math/rand"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
)

func TestMatrixStreamRoundTrip(t *testing.T) {
	p := core.MatrixParams{K: 4, M1: 64, M2: 32, Epsilon: 2}
	famA := hashing.NewFamily(1, p.K, p.M1)
	famB := hashing.NewFamily(2, p.K, p.M2)
	var buf bytes.Buffer
	w, err := NewMatrixReportWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	want := make([]core.MatrixReport, 3000)
	for i := range want {
		want[i] = core.PerturbTuple(uint64(i%50), uint64(i%37), p, famA, famB, rng)
		if err := w.Write(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []core.MatrixReport
	h, n, err := readMatrixStream(&buf, p, func(r core.MatrixReport) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != KindMatrix || h.M2 != 32 || n != len(want) {
		t.Fatalf("header %+v, n=%d", h, n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMatrixStreamParamMismatch(t *testing.T) {
	p := core.MatrixParams{K: 2, M1: 16, M2: 16, Epsilon: 1}
	var buf bytes.Buffer
	w, err := NewMatrixReportWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	other := p
	other.M2 = 32
	if _, _, err := readMatrixStream(&buf, other, func(core.MatrixReport) {}); err == nil {
		t.Fatal("expected param mismatch error")
	}
}

func TestMatrixStreamRejectsJoinStream(t *testing.T) {
	var buf bytes.Buffer
	jw, err := NewReportWriter(&buf, core.Params{K: 2, M: 16, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	p := core.MatrixParams{K: 2, M1: 16, M2: 16, Epsilon: 1}
	if _, _, err := readMatrixStream(&buf, p, func(core.MatrixReport) {}); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestMatrixStreamOutOfBoundsReport(t *testing.T) {
	p := core.MatrixParams{K: 2, M1: 16, M2: 16, Epsilon: 1}
	var buf bytes.Buffer
	w, err := NewMatrixReportWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(core.MatrixReport{Y: 1, Row: 9, L1: 0, L2: 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMatrixStream(&buf, p, func(core.MatrixReport) {}); err == nil {
		t.Fatal("expected bounds error")
	}
}

// TestCorruptStreamsNeverPanic injects random corruption into valid
// streams: the reader must fail cleanly (error, not panic) or, when the
// corruption happens to keep every field in range, decode something —
// but never crash.
func TestCorruptStreamsNeverPanic(t *testing.T) {
	p := core.Params{K: 4, M: 64, Epsilon: 2}
	fam := hashing.NewFamily(1, p.K, p.M)
	var pristine bytes.Buffer
	w, err := NewReportWriter(&pristine, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		if err := w.Write(core.Perturb(uint64(i), p, fam, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	base := pristine.Bytes()

	for trial := 0; trial < 500; trial++ {
		corrupted := append([]byte(nil), base...)
		// Flip 1-4 random bytes and truncate sometimes.
		for f := 0; f <= rng.Intn(4); f++ {
			corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(3) == 0 {
			corrupted = corrupted[:rng.Intn(len(corrupted))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: reader panicked: %v", trial, r)
				}
			}()
			_, _, _ = readStream(bytes.NewReader(corrupted), p, func(core.Report) {})
		}()
	}
}
