package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/race"
)

// The per-report decoders the decodeBatch kernels replaced, kept as the
// executable statement of what a kernel must do: DecodeReport, then the
// bounds check, then append — one report at a time, stopping at the
// first that fails.

func referenceDecodeReports(dst []core.Report, src []byte, expect core.Params) ([]core.Report, error) {
	for ; len(src) >= ReportSize; src = src[ReportSize:] {
		rep, err := DecodeReport(src)
		if err != nil {
			return dst, err
		}
		if int(rep.Row) >= expect.K || int(rep.Col) >= expect.M {
			return dst, fmt.Errorf("protocol: indices (%d,%d) out of sketch bounds (%d,%d)",
				rep.Row, rep.Col, expect.K, expect.M)
		}
		dst = append(dst, rep)
	}
	return dst, nil
}

func referenceDecodeMatrixReports(dst []core.MatrixReport, src []byte, expect core.MatrixParams) ([]core.MatrixReport, error) {
	for ; len(src) >= MatrixReportSize; src = src[MatrixReportSize:] {
		rep, err := DecodeMatrixReport(src)
		if err != nil {
			return dst, err
		}
		if int(rep.Row) >= expect.K || int(rep.L1) >= expect.M1 || int(rep.L2) >= expect.M2 {
			return dst, fmt.Errorf("protocol: indices (%d,%d,%d) out of sketch bounds (%d,%d,%d)",
				rep.Row, rep.L1, rep.L2, expect.K, expect.M1, expect.M2)
		}
		dst = append(dst, rep)
	}
	return dst, nil
}

// checkDecodeBatch holds one kernel against its reference on one input:
// same reports (the prefix already in dst untouched), same error text.
func checkDecodeBatch[R comparable, P any](t *testing.T, c *reportCodec[R, P],
	reference func([]R, []byte, P) ([]R, error), prefix []R, src []byte, expect P) {
	t.Helper()
	want, wantErr := reference(slices.Clone(prefix), src, expect)
	got, gotErr := c.decodeBatch(slices.Grow(slices.Clone(prefix), len(src)/c.size), src, expect)
	if !slices.Equal(got, want) {
		t.Fatalf("%s kernel decoded %d reports %v, the reference %d %v", c.noun, len(got), got, len(want), want)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s kernel error %q, the reference %q", c.noun, gotErr, wantErr)
	}
}

// decodeBounds turns fuzzed integers into sketch bounds that reach the
// edges the kernels compare against: zero, negative, one past a u16 row
// or a u32 column, and far above 2³¹.
func decodeBounds(v int64) int {
	switch v & 7 {
	case 0:
		return 0
	case 1:
		return int(v >> 3 % (1 << 17))
	case 2:
		return math.MaxInt
	case 3:
		return -int(v>>3) - 1
	case 4:
		return 1<<32 + int(v>>3%3) - 1
	}
	return int(v >> 3)
}

func FuzzDecodeBatch(f *testing.F) {
	good := AppendReportsPayload(nil, goldenJoinReports(5))
	goodMatrix := AppendMatrixReportsPayload(nil, goldenMatrixReports(5))
	f.Add(good, int64(9<<3|1), int64(512<<3|1), int64(0))
	f.Add(goodMatrix, int64(9<<3|1), int64(64<<3|1), int64(64<<3|1))
	f.Add(good[:len(good)-3], int64(2), int64(2), int64(2)) // trailing partial report, unbounded sketch
	f.Add(append(slices.Clone(good), 2, 0, 0, 0, 0, 0, 0), int64(2), int64(4), int64(4))
	f.Add(append(slices.Clone(good), 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), int64(4), int64(4), int64(4))
	f.Add(good, int64(0), int64(0), int64(0))
	f.Add(goodMatrix, int64(3), int64(11), int64(19))
	f.Fuzz(func(t *testing.T, src []byte, kv, m1v, m2v int64) {
		k, m1, m2 := decodeBounds(kv), decodeBounds(m1v), decodeBounds(m2v)
		prefix := goldenJoinReports(len(src) % 3)
		checkDecodeBatch(t, &reportCodecJoin, referenceDecodeReports, prefix, src,
			core.Params{K: k, M: m1, Epsilon: 1})
		matrixPrefix := goldenMatrixReports(len(src) % 3)
		checkDecodeBatch(t, &reportCodecMatrix, referenceDecodeMatrixReports, matrixPrefix, src,
			core.MatrixParams{K: k, M1: m1, M2: m2, Epsilon: 1})
	})
}

// TestDecodeBatchEdges walks the failing report through every position
// of a batch, for every way a report can fail, so the "dst extended by
// the reports before the failing one" half of the contract is pinned
// without the fuzzer.
func TestDecodeBatchEdges(t *testing.T) {
	p := core.Params{K: 9, M: 512, Epsilon: 1}
	mp := core.MatrixParams{K: 9, M1: 64, M2: 32, Epsilon: 1}
	bad := [][]byte{
		{2, 0, 0, 0, 0, 0, 0},                   // sign byte
		{0xff, 0, 0, 0, 0, 0, 0},                // sign byte
		{1, 0, 9, 0, 0, 0, 0},                   // row == K
		{0, 0, 0, 0, 0, 2, 0},                   // col == M
		{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // everything out of range
	}
	for _, b := range bad {
		for at := 0; at <= 4; at++ {
			src := AppendReportsPayload(nil, goldenJoinReports(4))
			src = slices.Insert(src, at*ReportSize, b...)
			checkDecodeBatch(t, &reportCodecJoin, referenceDecodeReports, nil, src, p)
		}
	}
	badMatrix := [][]byte{
		{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{1, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 32},
	}
	for _, b := range badMatrix {
		for at := 0; at <= 4; at++ {
			src := AppendMatrixReportsPayload(nil, goldenMatrixReports(4))
			src = slices.Insert(src, at*MatrixReportSize, b...)
			checkDecodeBatch(t, &reportCodecMatrix, referenceDecodeMatrixReports, nil, src, mp)
		}
	}
}

// TestDecodeBatchDoesNotAllocate is the allocation ceiling of the two
// wire → report kernels, at 0: each decodes into the caller's pooled
// batch, so one allocation per call is one per DefaultBatchSize reports
// of every stream and every replayed record. The matrix case also takes
// its batch from the pool and returns it, as a replayed record does. A
// count, not a timing, so it blocks on any machine.
func TestDecodeBatchDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector say nothing about the code")
	}
	p := core.Params{K: 18, M: 1024, Epsilon: 4}
	rng := rand.New(rand.NewSource(1))
	var payload []byte
	for j := 0; j < DefaultBatchSize; j++ {
		payload = append(payload, byte(rng.Intn(2)))
		payload = binary.BigEndian.AppendUint16(payload, uint16(rng.Intn(p.K)))
		payload = binary.BigEndian.AppendUint32(payload, uint32(rng.Intn(p.M)))
	}
	dst := make([]core.Report, 0, DefaultBatchSize)
	n := testing.AllocsPerRun(20, func() {
		if got, err := decodeReports(dst, payload, p); err != nil || len(got) != DefaultBatchSize {
			t.Fatal(len(got), err)
		}
	})
	if n != 0 {
		t.Errorf("decodeReports allocates %v times per batch, ceiling 0", n)
	}

	mp := core.MatrixParams{K: 18, M1: 64, M2: 64, Epsilon: 4}
	tuples := make([]core.MatrixReport, DefaultBatchSize)
	for i := range tuples {
		tuples[i] = core.MatrixReport{Y: int8(2*rng.Intn(2) - 1), Row: uint32(rng.Intn(mp.K)), L1: uint32(rng.Intn(mp.M1)), L2: uint32(rng.Intn(mp.M2))}
	}
	matrixPayload := AppendMatrixReportsPayload(nil, tuples)
	n = testing.AllocsPerRun(20, func() {
		got, err := decodeMatrixReports(GetMatrixBatch(), matrixPayload, mp)
		if err != nil || len(got) != DefaultBatchSize {
			t.Fatal(len(got), err)
		}
		PutMatrixBatch(got)
	})
	if n != 0 {
		t.Errorf("decodeMatrixReports into a pooled batch allocates %v times per batch, ceiling 0", n)
	}
}

var benchReports []core.Report

// BenchmarkDecodeReports is the ledger entry for the wire → report
// kernel both the stream reader and WAL replay run: DefaultBatchSize
// reports per op at the daemon's default dimensions. The signs are
// RANDOM on purpose — and the payloads rotate, so the predictor cannot
// learn one payload's sequence either. A report's sign is a fair coin by
// construction, so a decoder that branches on it mispredicts every other
// report; an input of constant or alternating signs predicts perfectly
// and hides exactly the cost this benchmark exists to hold down.
func BenchmarkDecodeReports(b *testing.B) {
	p := core.Params{K: 18, M: 1024, Epsilon: 4}
	rng := rand.New(rand.NewSource(1))
	payloads := make([][]byte, 16)
	for i := range payloads {
		for j := 0; j < DefaultBatchSize; j++ {
			payloads[i] = append(payloads[i], byte(rng.Intn(2)))
			payloads[i] = binary.BigEndian.AppendUint16(payloads[i], uint16(rng.Intn(p.K)))
			payloads[i] = binary.BigEndian.AppendUint32(payloads[i], uint32(rng.Intn(p.M)))
		}
	}
	dst := make([]core.Report, 0, DefaultBatchSize)
	b.SetBytes(DefaultBatchSize * ReportSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchReports, err = decodeReports(dst, payloads[i%len(payloads)], p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultBatchSize, "ns/report")
}
