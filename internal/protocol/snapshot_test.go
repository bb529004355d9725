package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ldpjoin/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden snapshot files in testdata")

func snapParams() core.Params { return core.Params{K: 4, M: 16, Epsilon: 2} }

// testAggregator builds a deterministic unfinalized aggregator: the
// report positions and signs are a fixed function of i, independent of
// any PRNG, so golden bytes never drift.
func testAggregator(t *testing.T) *core.Aggregator {
	t.Helper()
	p := snapParams()
	agg := core.NewAggregator(p, p.NewFamily(7))
	for i := 0; i < 200; i++ {
		y := int8(1)
		if i%3 == 0 {
			y = -1
		}
		agg.Add(core.Report{Y: y, Row: uint32(i % p.K), Col: uint32((i * 5) % p.M)})
	}
	return agg
}

func testMatrixAggregator(t testing.TB) *core.MatrixAggregator {
	t.Helper()
	p := core.MatrixParams{K: 3, M1: 8, M2: 4, Epsilon: 2}
	famA := core.Params{K: p.K, M: p.M1, Epsilon: p.Epsilon}.NewFamily(11)
	famB := core.Params{K: p.K, M: p.M2, Epsilon: p.Epsilon}.NewFamily(13)
	ma := core.NewMatrixAggregator(p, famA, famB)
	for i := 0; i < 150; i++ {
		y := int8(1)
		if i%4 == 0 {
			y = -1
		}
		ma.Add(core.MatrixReport{
			Y:   y,
			Row: uint32(i % p.K),
			L1:  uint32((i * 3) % p.M1),
			L2:  uint32((i * 7) % p.M2),
		})
	}
	return ma
}

func encode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	data, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	return data
}

func decode(t *testing.T, data []byte) *Snapshot {
	t.Helper()
	s, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	return s
}

func TestSnapshotRoundTripAggregator(t *testing.T) {
	agg := testAggregator(t)
	wantRows := make([][]int32, len(agg.Rows()))
	for j, row := range agg.Rows() {
		wantRows[j] = slices.Clone(row)
	}

	data := encode(t, SnapshotOfAggregator(agg))
	restored, err := decode(t, data).Aggregator()
	if err != nil {
		t.Fatalf("restoring aggregator: %v", err)
	}
	if restored.N() != agg.N() {
		t.Fatalf("restored N = %v, want %v", restored.N(), agg.N())
	}
	if restored.Family().Seed() != agg.Family().Seed() {
		t.Fatalf("restored seed = %d, want %d", restored.Family().Seed(), agg.Family().Seed())
	}
	for j, row := range restored.Rows() {
		for x, v := range row {
			if v != wantRows[j][x] {
				t.Fatalf("restored cell [%d,%d] = %v, want %v", j, x, v, wantRows[j][x])
			}
		}
	}
	// The restored aggregator is mergeable and finalizes identically.
	skA := agg.Finalize()
	skB := restored.Finalize()
	a, _ := skA.MarshalBinary()
	b, _ := skB.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("restored aggregator finalizes differently from the original")
	}
}

func TestSnapshotRoundTripSketch(t *testing.T) {
	sk := testAggregator(t).Finalize()
	data := encode(t, SnapshotOfSketch(sk))
	restored, err := decode(t, data).Sketch()
	if err != nil {
		t.Fatalf("restoring sketch: %v", err)
	}
	a, _ := sk.MarshalBinary()
	b, _ := restored.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("restored sketch differs from the original")
	}
}

func TestSnapshotRoundTripMatrixAggregator(t *testing.T) {
	ma := testMatrixAggregator(t)
	data := encode(t, SnapshotOfMatrixAggregator(ma))
	restored, err := decode(t, data).MatrixAggregator()
	if err != nil {
		t.Fatalf("restoring matrix aggregator: %v", err)
	}
	if restored.N() != ma.N() {
		t.Fatalf("restored N = %v, want %v", restored.N(), ma.N())
	}
	if !reflect.DeepEqual(restored.Runs(), ma.Runs()) {
		t.Fatal("restored counts differ from the original")
	}
	// Finalize both and compare every replica.
	if !reflect.DeepEqual(restored.Finalize().Runs(), ma.Finalize().Runs()) {
		t.Fatal("restored aggregator finalizes differently from the original")
	}
}

func TestSnapshotRoundTripMatrixSketch(t *testing.T) {
	ms := testMatrixAggregator(t).Finalize()
	data := encode(t, SnapshotOfMatrixSketch(ms))
	restored, err := decode(t, data).MatrixSketch()
	if err != nil {
		t.Fatalf("restoring matrix sketch: %v", err)
	}
	if restored.N() != ms.N() {
		t.Fatalf("restored N = %v, want %v", restored.N(), ms.N())
	}
	if !reflect.DeepEqual(restored.Runs(), ms.Runs()) {
		t.Fatal("restored sketch differs from the original")
	}
}

// TestSnapshotMergeMatchesUnion is the codec-level statement of the
// federation guarantee: two half-population aggregators shipped through
// snapshots and merged finalize byte-identically to one aggregator that
// ingested the whole stream.
func TestSnapshotMergeMatchesUnion(t *testing.T) {
	p := snapParams()
	fam := p.NewFamily(7)
	rng := rand.New(rand.NewSource(99))
	reports := make([]core.Report, 4000)
	for i := range reports {
		reports[i] = core.Perturb(uint64(rng.Intn(50)), p, fam, rng)
	}

	union := core.NewAggregator(p, fam)
	half1 := core.NewAggregator(p, fam)
	half2 := core.NewAggregator(p, fam)
	for i, r := range reports {
		union.Add(r)
		if i < len(reports)/2 {
			half1.Add(r)
		} else {
			half2.Add(r)
		}
	}

	// Ship both halves through the codec, restore, merge, finalize.
	r1, err := decode(t, encode(t, SnapshotOfAggregator(half1))).Aggregator()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := decode(t, encode(t, SnapshotOfAggregator(half2))).Aggregator()
	if err != nil {
		t.Fatal(err)
	}
	r1.Merge(r2)
	merged, _ := r1.Finalize().MarshalBinary()
	single, _ := union.Finalize().MarshalBinary()
	if !bytes.Equal(merged, single) {
		t.Fatal("merged snapshot halves do not reproduce single-node aggregation byte-for-byte")
	}
}

func TestSnapshotCanonicalEncoding(t *testing.T) {
	data := encode(t, SnapshotOfAggregator(testAggregator(t)))
	re := encode(t, decode(t, data))
	if !bytes.Equal(data, re) {
		t.Fatal("encode(decode(data)) != data: encoding is not canonical")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	data := encode(t, SnapshotOfAggregator(testAggregator(t)))
	// Any single corrupted byte must be rejected (CRC32 detects all
	// bursts up to 32 bits).
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("corrupting byte %d went undetected", i)
		}
	}
	// Every truncation must be rejected.
	for n := 0; n < len(data); n += 7 {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := DecodeSnapshot(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing garbage went undetected")
	}
}

func TestSnapshotConfigMismatch(t *testing.T) {
	p := snapParams()
	snap := decode(t, encode(t, SnapshotOfAggregator(testAggregator(t))))

	if err := snap.CompatibleWithJoin(p, 7); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	cases := []struct {
		name string
		p    core.Params
		seed int64
	}{
		{"k", core.Params{K: p.K + 1, M: p.M, Epsilon: p.Epsilon}, 7},
		{"m", core.Params{K: p.K, M: 2 * p.M, Epsilon: p.Epsilon}, 7},
		{"epsilon", core.Params{K: p.K, M: p.M, Epsilon: p.Epsilon + 1}, 7},
		{"seed", p, 8},
	}
	for _, tc := range cases {
		if err := snap.CompatibleWithJoin(tc.p, tc.seed); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s mismatch: got %v, want ErrSnapshotMismatch", tc.name, err)
		}
	}
	if err := snap.CompatibleWithMatrix(core.MatrixParams{K: p.K, M1: p.M, M2: p.M, Epsilon: p.Epsilon}, 7, 7); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("join snapshot accepted as matrix: %v", err)
	}
}

func TestSnapshotFormMismatch(t *testing.T) {
	unfin := decode(t, encode(t, SnapshotOfAggregator(testAggregator(t))))
	if _, err := unfin.Sketch(); err == nil {
		t.Error("unfinalized snapshot restored as finalized sketch")
	}
	fin := decode(t, encode(t, SnapshotOfSketch(testAggregator(t).Finalize())))
	if _, err := fin.Aggregator(); err == nil {
		t.Error("finalized snapshot restored as mergeable aggregator")
	}
	if _, err := fin.MatrixAggregator(); err == nil {
		t.Error("join snapshot restored as matrix aggregator")
	}
}

// TestSnapshotValidateRejectsBadState holds hostile join snapshots to
// the structure report counts have, finalized and unfinalized alike:
// each row breaks one rule, and the snapshot is refused by the encoder
// and, where its payload can carry the break, by the decoder.
func TestSnapshotValidateRejectsBadState(t *testing.T) {
	good := SnapshotOfAggregator(testAggregator(t))
	n := good.N
	for _, tc := range []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"negative n", func(s *Snapshot) { s.N = -1 }},
		{"nan n", func(s *Snapshot) { s.N = math.NaN() }},
		{"inf n", func(s *Snapshot) { s.N = math.Inf(1) }},
		{"fractional n", func(s *Snapshot) { s.N = n + 0.5 }},
		{"n beyond MaxInt32", func(s *Snapshot) { s.N = core.MaxReports + 1 }},
		{"counts beyond n", func(s *Snapshot) { s.Counts[0][1] += int32(2 * n) }},
		{"counts beyond -n", func(s *Snapshot) { s.Counts[0][1] -= int32(2 * n) }},
		{"parity of the counts", func(s *Snapshot) { s.N = n - 1 }},
		{"bad kind", func(s *Snapshot) { s.Kind = 9 }},
		{"join with m2", func(s *Snapshot) { s.M2 = 4 }},
		{"join with seedB", func(s *Snapshot) { s.SeedB = 3 }},
		{"non-power-of-two m", func(s *Snapshot) { s.M1 = 15 }},
		{"row count", func(s *Snapshot) { s.Counts = s.Counts[:1] }},
		{"row width", func(s *Snapshot) { s.Counts[0] = s.Counts[0][:3] }},
	} {
		for _, finalized := range []bool{false, true} {
			s := *good
			s.Finalized = finalized
			s.Counts = make([][]int32, len(good.Counts))
			for j, row := range good.Counts {
				s.Counts[j] = slices.Clone(row)
			}
			tc.mutate(&s)
			if _, err := EncodeSnapshot(&s); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("%s (finalized=%v): encode returned %v, want ErrBadSnapshot", tc.name, finalized, err)
			}
			if s.Kind != SnapshotJoin || s.M2 != 0 || s.SeedB != 0 {
				continue // the payload cannot carry these
			}
			if _, err := DecodeSnapshot(appendSnapshot(nil, &s)); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("%s (finalized=%v): decode returned %v, want ErrBadSnapshot", tc.name, finalized, err)
			}
		}
	}
}

// TestSnapshotValidateRejectsBadMatrixState holds hostile matrix
// snapshots to the structure report counts have, finalized and
// unfinalized alike: each row breaks one rule, and the snapshot is
// refused both by the encoder and, re-encoded without validation, by
// the decoder.
func TestSnapshotValidateRejectsBadMatrixState(t *testing.T) {
	good := SnapshotOfMatrixAggregator(testMatrixAggregator(t))
	n := good.N
	for _, tc := range []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"fewer replicas than k", func(s *Snapshot) { s.Runs = s.Runs[:len(s.Runs)-1] }},
		{"more replicas than k", func(s *Snapshot) { s.Runs = append(s.Runs, nil) }},
		{"cell beyond m1·m2", func(s *Snapshot) { s.Runs[0][len(s.Runs[0])-1].Cell = uint32(s.M1 * s.M2) }},
		{"repeated cell", func(s *Snapshot) { s.Runs[1][1].Cell = s.Runs[1][0].Cell }},
		{"decreasing cells", func(s *Snapshot) { s.Runs[2][0], s.Runs[2][1] = s.Runs[2][1], s.Runs[2][0] }},
		{"zero count", func(s *Snapshot) { s.Runs[0][0].Count = 0 }},
		{"counts beyond n", func(s *Snapshot) { s.Runs[0][0].Count += int32(2 * n) }},
		{"parity of the counts", func(s *Snapshot) { s.N = n - 1 }},
		{"fractional n", func(s *Snapshot) { s.N = n + 0.5 }},
		{"negative n", func(s *Snapshot) { s.N = -1 }},
		{"nan n", func(s *Snapshot) { s.N = math.NaN() }},
		{"n beyond MaxInt32", func(s *Snapshot) { s.N = core.MaxReports + 1 }},
		{"dense counts", func(s *Snapshot) { s.Counts = [][]int32{{0}} }},
	} {
		for _, finalized := range []bool{false, true} {
			s := *good
			s.Finalized = finalized
			s.Runs = make([][]core.MatrixEntry, len(good.Runs))
			for j, run := range good.Runs {
				s.Runs[j] = slices.Clone(run)
			}
			tc.mutate(&s)
			if _, err := EncodeSnapshot(&s); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("%s (finalized=%v): encode returned %v, want ErrBadSnapshot", tc.name, finalized, err)
			}
			if s.Counts != nil {
				continue // a matrix payload has no place for them
			}
			if _, err := DecodeSnapshot(appendSnapshot(nil, &s)); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("%s (finalized=%v): decode returned %v, want ErrBadSnapshot", tc.name, finalized, err)
			}
		}
	}
}

// TestSnapshotRejectsLyingMatrixPayload: the declared entry count and
// the per-replica counts must match the payload before anything is
// allocated for them.
func TestSnapshotRejectsLyingMatrixPayload(t *testing.T) {
	data := encode(t, SnapshotOfMatrixAggregator(testMatrixAggregator(t)))
	reseal := func(mutate func(b []byte)) []byte {
		b := slices.Clone(data)
		mutate(b)
		body := b[:len(b)-snapTrailerSize]
		binary.BigEndian.PutUint32(b[len(body):], crc32.ChecksumIEEE(body))
		return b
	}
	for name, b := range map[string][]byte{
		"entry count beyond the payload": reseal(func(b []byte) { binary.BigEndian.PutUint64(b[52:], 1<<40) }),
		"entry count short of the payload": reseal(func(b []byte) {
			binary.BigEndian.PutUint64(b[52:], binary.BigEndian.Uint64(b[52:])-1)
		}),
		"k beyond the payload": reseal(func(b []byte) { binary.BigEndian.PutUint32(b[8:], 1<<31) }),
		"replica counts that do not sum to the total": reseal(func(b []byte) {
			binary.BigEndian.PutUint32(b[snapHeaderSize:], binary.BigEndian.Uint32(b[snapHeaderSize:])+1)
		}),
	} {
		if _, err := DecodeSnapshot(b); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: decode returned %v, want ErrBadSnapshot", name, err)
		}
	}
}

// refusesVersion1 holds the version 1 snapshots in testdata — the bytes
// the release before each break wrote — to a refusal naming the break,
// by the decoder and by the kind peek the merge route reads first.
func refusesVersion1(t *testing.T, want string, names ...string) {
	t.Helper()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeColumnSnapshot(data); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: decode returned %v, want the %q refusal", name, err, want)
		}
		if kind, err := PeekColumnKind(data); err == nil && kind != KindPlus || err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("%s: peek returned %v, %v, want the %q refusal", name, kind, err, want)
		}
	}
}

// TestSnapshotRefusesVersion1Matrix: the dense matrix snapshots written
// before matrix state became counts are refused.
func TestSnapshotRefusesVersion1Matrix(t *testing.T) {
	refusesVersion1(t, "version 1 matrix snapshot", "matrix_v1_unfinalized.snap", "matrix_v1_finalized.snap")
}

// TestSnapshotRefusesVersion1Join: the float64 join snapshots written
// before join state became counts are refused, and so are the plus
// snapshots that embedded them. A plus snapshot peeks as plus whatever
// its version: its decoder names the break.
func TestSnapshotRefusesVersion1Join(t *testing.T) {
	refusesVersion1(t, "version 1 join snapshot", "join_v1_unfinalized.snap", "join_v1_finalized.snap")
	refusesVersion1(t, "version 1 plus snapshot", "plus_v1_phase1.snap", "plus_v1_phase2.snap", "plus_v1_finalized.snap")
}

// golden compares the canonical encoding of a deterministic snapshot
// against the checked-in bytes; -update rewrites them.
func golden(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestSnapshotGolden -update ./internal/protocol` to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s: encoding diverged from golden bytes (%d vs %d bytes)", name, len(data), len(want))
	}
	// The golden bytes themselves must decode and re-encode canonically.
	if re := encode(t, decode(t, want)); !bytes.Equal(re, want) {
		t.Fatalf("%s: golden bytes are not canonical", name)
	}
}

func TestSnapshotGolden(t *testing.T) {
	golden(t, "join_unfinalized.snap", encode(t, SnapshotOfAggregator(testAggregator(t))))
	golden(t, "join_finalized.snap", encode(t, SnapshotOfSketch(testAggregator(t).Finalize())))
	golden(t, "matrix_unfinalized.snap", encode(t, SnapshotOfMatrixAggregator(testMatrixAggregator(t))))
	golden(t, "matrix_finalized.snap", encode(t, SnapshotOfMatrixSketch(testMatrixAggregator(t).Finalize())))
}

// FuzzSnapshotRoundTrip asserts that any byte stream the decoder
// accepts re-encodes to exactly the input (canonical encoding), and
// that the decoder never panics on arbitrary input.
func FuzzSnapshotRoundTrip(f *testing.F) {
	p := snapParams()
	agg := core.NewAggregator(p, p.NewFamily(7))
	for i := 0; i < 64; i++ {
		agg.Add(core.Report{Y: int8(1 - 2*(i%2)), Row: uint32(i % p.K), Col: uint32(i % p.M)})
	}
	if seed, err := EncodeSnapshot(SnapshotOfAggregator(agg)); err == nil {
		f.Add(seed)
	}
	small := core.Params{K: 1, M: 2, Epsilon: 1}
	sAgg := core.NewAggregator(small, small.NewFamily(1))
	sAgg.Add(core.Report{Y: 1, Row: 0, Col: 1})
	if seed, err := EncodeSnapshot(SnapshotOfAggregator(sAgg)); err == nil {
		f.Add(seed)
		f.Add(seed[:len(seed)-1])
	}
	if seed, err := EncodeSnapshot(SnapshotOfMatrixAggregator(testMatrixAggregator(f))); err == nil {
		f.Add(seed)
		// Hostile: the same counts with two cells of replica 0 swapped out
		// of order, resealed with a valid checksum.
		hostile := slices.Clone(seed)
		first := snapHeaderSize + 4*3
		copy(hostile[first:first+8], seed[first+8:first+16])
		copy(hostile[first+8:first+16], seed[first:first+8])
		body := hostile[:len(hostile)-snapTrailerSize]
		binary.BigEndian.PutUint32(hostile[len(body):], crc32.ChecksumIEEE(body))
		f.Add(hostile)
	}
	if seed, err := EncodeSnapshot(SnapshotOfMatrixSketch(testMatrixAggregator(f).Finalize())); err == nil {
		f.Add(seed)
	}
	f.Add([]byte("SNAP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		re, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("encoding is not canonical: %d in, %d out", len(data), len(re))
		}
		again, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		if again.Fingerprint() != s.Fingerprint() || again.N != s.N || again.Finalized != s.Finalized {
			t.Fatal("round trip changed snapshot identity")
		}
	})
}
