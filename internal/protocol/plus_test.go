package protocol

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ldpjoin/internal/core"
)

// testPlusAggregators builds deterministic unfinalized aggregators for
// the three phases of a plus column under base seed 7: fixed report
// positions, no PRNG, so golden bytes never drift.
func testPlusAggregators(t *testing.T) (sample, low, high *core.Aggregator) {
	t.Helper()
	p := snapParams()
	famS := p.NewFamily(core.PlusSampleSeed(7))
	famG := p.NewFamily(core.PlusGroupSeed(7))
	sample = core.NewAggregator(p, famS)
	low = core.NewAggregator(p, famG)
	high = core.NewAggregator(p, famG)
	for i := 0; i < 120; i++ {
		y := int8(1)
		if i%3 == 0 {
			y = -1
		}
		sample.Add(core.Report{Y: y, Row: uint32(i % p.K), Col: uint32((i * 5) % p.M)})
	}
	for i := 0; i < 90; i++ {
		y := int8(1)
		if i%4 == 0 {
			y = -1
		}
		low.Add(core.Report{Y: y, Row: uint32(i % p.K), Col: uint32((i * 3) % p.M)})
		high.Add(core.Report{Y: -y, Row: uint32((i + 1) % p.K), Col: uint32((i * 7) % p.M)})
	}
	return sample, low, high
}

// The three lifecycle forms of a plus snapshot: mid-phase-1 (sample
// only), mid-phase-2 (advanced, all three aggregators live), and
// finalized.
func testPlusPhase1(t *testing.T) *PlusSnapshot {
	t.Helper()
	sample, _, _ := testPlusAggregators(t)
	return &PlusSnapshot{Sample: SnapshotOfAggregator(sample)}
}

func testPlusPhase2(t *testing.T) *PlusSnapshot {
	t.Helper()
	sample, low, high := testPlusAggregators(t)
	return &PlusSnapshot{
		Advanced: true,
		Domain:   50,
		Theta:    0.1,
		FI:       []uint64{3, 9, 17},
		Sample:   SnapshotOfAggregator(sample),
		Low:      SnapshotOfAggregator(low),
		High:     SnapshotOfAggregator(high),
	}
}

func testPlusFinalized(t *testing.T) *PlusSnapshot {
	t.Helper()
	sample, low, high := testPlusAggregators(t)
	return &PlusSnapshot{
		Finalized: true,
		Advanced:  true,
		Domain:    50,
		Theta:     0.1,
		FI:        []uint64{3, 9, 17},
		Sample:    SnapshotOfSketch(sample.Finalize()),
		Low:       SnapshotOfSketch(low.Finalize()),
		High:      SnapshotOfSketch(high.Finalize()),
	}
}

func encodePlus(t *testing.T, s *PlusSnapshot) []byte {
	t.Helper()
	data, err := EncodePlusSnapshot(s)
	if err != nil {
		t.Fatalf("EncodePlusSnapshot: %v", err)
	}
	return data
}

func decodePlus(t *testing.T, data []byte) *PlusSnapshot {
	t.Helper()
	s, err := DecodePlusSnapshot(data)
	if err != nil {
		t.Fatalf("DecodePlusSnapshot: %v", err)
	}
	return s
}

func TestPlusStreamRoundTrip(t *testing.T) {
	p := snapParams()
	var buf bytes.Buffer
	w, err := NewPlusReportWriter(&buf, p, PlusHigh)
	if err != nil {
		t.Fatal(err)
	}
	in := []core.Report{{Y: 1, Row: 0, Col: 3}, {Y: -1, Row: 3, Col: 15}}
	for _, r := range in {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var out []core.Report
	h, group, n, err := readPlusStream(bytes.NewReader(buf.Bytes()), p, func(r core.Report) { out = append(out, r) })
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != KindPlus || group != PlusHigh || n != len(in) {
		t.Fatalf("header %+v group %v n %d", h, group, n)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("report %d: %v vs %v", i, out[i], in[i])
		}
	}
	if _, err := NewPlusReportWriter(&bytes.Buffer{}, p, PlusGroup(3)); err == nil {
		t.Fatal("invalid group accepted by writer")
	}
	// A join stream must be refused by the plus reader, and vice versa.
	var jb bytes.Buffer
	jw, _ := NewReportWriter(&jb, p)
	jw.Flush()
	if _, _, _, err := readPlusStream(bytes.NewReader(jb.Bytes()), p, func(core.Report) {}); err == nil {
		t.Fatal("join stream accepted as plus")
	}
	if _, _, err := readStream(bytes.NewReader(buf.Bytes()), p, func(core.Report) {}); err == nil {
		t.Fatal("plus stream accepted as join")
	}
}

// decodePlusReports reads a RecordPlusReports payload the way store
// recovery does: SplitPlusReportsPayload for the group byte, then
// DecodeReportsPayload for the reports after it.
func decodePlusReports(payload []byte, p core.Params) (PlusGroup, []core.Report, error) {
	group, body, err := SplitPlusReportsPayload(payload)
	if err != nil {
		return 0, nil, err
	}
	reports, err := DecodeReportsPayload(body, p)
	return group, reports, err
}

func TestPlusReportsPayload(t *testing.T) {
	p := snapParams()
	in := []core.Report{{Y: 1, Row: 3, Col: 15}, {Y: -1, Row: 0, Col: 0}}
	payload := AppendReportsPayload([]byte{byte(PlusLow)}, in)
	group, out, err := decodePlusReports(payload, p)
	if err != nil {
		t.Fatal(err)
	}
	if group != PlusLow || len(out) != len(in) || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mismatch: group %v, %v vs %v", group, out, in)
	}
	if _, _, err := decodePlusReports(nil, p); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("empty payload: got %v", err)
	}
	if _, _, err := decodePlusReports([]byte{3}, p); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("bad group: got %v", err)
	}
	if _, _, err := decodePlusReports([]byte{0, 1, 2}, p); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("ragged payload: got %v", err)
	}
	oob := AppendReportsPayload([]byte{byte(PlusSample)}, []core.Report{{Y: 1, Row: 9, Col: 0}})
	if _, _, err := decodePlusReports(oob, p); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("out-of-bounds report: got %v", err)
	}
}

func TestPlusAdvancePayload(t *testing.T) {
	fi := []uint64{1, 5, 42}
	payload := AppendPlusAdvancePayload(nil, 100, 0.05, fi)
	domain, theta, got, err := DecodePlusAdvancePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if domain != 100 || theta != 0.05 || len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 42 {
		t.Fatalf("round trip mismatch: %d %v %v", domain, theta, got)
	}
	// An empty FI is legal: a uniform phase-1 sample finds nothing.
	if _, _, fi, err := DecodePlusAdvancePayload(AppendPlusAdvancePayload(nil, 10, 0.5, nil)); err != nil || len(fi) != 0 {
		t.Fatalf("empty FI: %v %v", fi, err)
	}
	bad := [][]byte{
		payload[:10], // truncated
		AppendPlusAdvancePayload(nil, 0, 0.05, nil),              // zero domain
		AppendPlusAdvancePayload(nil, 100, 0, nil),               // theta 0
		AppendPlusAdvancePayload(nil, 100, 1, nil),               // theta 1
		AppendPlusAdvancePayload(nil, 100, math.NaN(), nil),      // theta NaN
		AppendPlusAdvancePayload(nil, 100, 0.05, []uint64{5, 1}), // unsorted
		AppendPlusAdvancePayload(nil, 100, 0.05, []uint64{1, 1}), // duplicate
		AppendPlusAdvancePayload(nil, 100, 0.05, []uint64{100}),  // outside domain
		append(payload, 0), // trailing byte
	}
	for i, b := range bad {
		if _, _, _, err := DecodePlusAdvancePayload(b); !errors.Is(err, ErrBadRecord) {
			t.Errorf("bad payload %d accepted: %v", i, err)
		}
	}
}

func TestPlusRecordTypesAccepted(t *testing.T) {
	p := snapParams()
	reports := []core.Report{{Y: 1, Row: 1, Col: 2}}
	log := AppendRecord(nil, RecordPlusReports, AppendReportsPayload([]byte{byte(PlusSample)}, reports))
	log = AppendRecord(log, RecordPlusAdvance, AppendPlusAdvancePayload(nil, 50, 0.1, []uint64{3}))
	r := bytes.NewReader(log)
	typ, payload, err := ReadRecord(r)
	if err != nil || typ != RecordPlusReports {
		t.Fatalf("first record: %v %v", typ, err)
	}
	if _, got, err := decodePlusReports(payload, p); err != nil || len(got) != 1 {
		t.Fatalf("plus reports payload: %v %v", got, err)
	}
	typ, payload, err = ReadRecord(r)
	if err != nil || typ != RecordPlusAdvance {
		t.Fatalf("second record: %v %v", typ, err)
	}
	if _, _, fi, err := DecodePlusAdvancePayload(payload); err != nil || len(fi) != 1 {
		t.Fatalf("plus advance payload: %v %v", fi, err)
	}
	if _, _, err := ReadRecord(bytes.NewReader(AppendRecord(nil, RecordType(6), nil))); !errors.Is(err, ErrBadRecord) {
		t.Fatal("record type 6 accepted")
	}
}

func TestPlusSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap *PlusSnapshot
	}{
		{"phase1", testPlusPhase1(t)},
		{"phase2", testPlusPhase2(t)},
		{"finalized", testPlusFinalized(t)},
	} {
		data := encodePlus(t, tc.snap)
		if !IsPlusSnapshot(data) {
			t.Fatalf("%s: IsPlusSnapshot false on its own encoding", tc.name)
		}
		if _, err := PeekSnapshotKind(data); err == nil {
			t.Fatalf("%s: plus snapshot accepted as base SNAP", tc.name)
		}
		got := decodePlus(t, data)
		if got.Finalized != tc.snap.Finalized || got.Advanced != tc.snap.Advanced ||
			got.Domain != tc.snap.Domain || got.Theta != tc.snap.Theta {
			t.Fatalf("%s: phase metadata changed: %+v", tc.name, got)
		}
		if got.N() != tc.snap.N() {
			t.Fatalf("%s: N %v vs %v", tc.name, got.N(), tc.snap.N())
		}
		if re := encodePlus(t, got); !bytes.Equal(re, data) {
			t.Fatalf("%s: encoding is not canonical", tc.name)
		}
		if err := got.CompatibleWithPlus(snapParams(), 7); err != nil {
			t.Fatalf("%s: incompatible with its own deployment: %v", tc.name, err)
		}
		if err := got.CompatibleWithPlus(snapParams(), 8); err == nil {
			t.Fatalf("%s: wrong base seed accepted", tc.name)
		}
	}
}

// goldenPlus is golden for the composite codec: same update flag and
// byte comparison, canonical check through DecodePlusSnapshot.
func goldenPlus(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run TestPlusSnapshotGolden -update ./internal/protocol` to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("%s: encoding diverged from golden bytes (%d vs %d bytes)", name, len(data), len(want))
	}
	if re := encodePlus(t, decodePlus(t, want)); !bytes.Equal(re, want) {
		t.Fatalf("%s: golden bytes are not canonical", name)
	}
}

func TestPlusSnapshotGolden(t *testing.T) {
	goldenPlus(t, "plus_phase1.snap", encodePlus(t, testPlusPhase1(t)))
	goldenPlus(t, "plus_phase2.snap", encodePlus(t, testPlusPhase2(t)))
	goldenPlus(t, "plus_finalized.snap", encodePlus(t, testPlusFinalized(t)))
}

func TestPlusSnapshotRejectsCorruption(t *testing.T) {
	data := encodePlus(t, testPlusPhase2(t))
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := DecodePlusSnapshot(mut); err == nil {
			t.Fatalf("corrupting byte %d went undetected", i)
		}
	}
	for n := 0; n < len(data); n += 7 {
		if _, err := DecodePlusSnapshot(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
	if _, err := DecodePlusSnapshot(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing garbage went undetected")
	}
	if _, err := DecodePlusSnapshot(encode(t, testPlusPhase1(t).Sample)); err == nil {
		t.Fatal("base SNAP accepted as plus snapshot")
	}
}

func TestPlusSnapshotValidateRejectsBadState(t *testing.T) {
	check := func(name string, mutate func(s *PlusSnapshot)) {
		t.Helper()
		s := testPlusPhase2(t)
		mutate(s)
		if _, err := EncodePlusSnapshot(s); err == nil {
			t.Errorf("%s: encode accepted invalid plus snapshot", name)
		}
	}
	check("finalized without advance", func(s *PlusSnapshot) { s.Finalized = true })
	check("advanced without groups", func(s *PlusSnapshot) { s.Low = nil })
	check("zero domain", func(s *PlusSnapshot) { s.Domain = 0 })
	check("theta out of range", func(s *PlusSnapshot) { s.Theta = 1.5 })
	check("fi unsorted", func(s *PlusSnapshot) { s.FI = []uint64{9, 3} })
	check("fi duplicate", func(s *PlusSnapshot) { s.FI = []uint64{3, 3} })
	check("fi outside domain", func(s *PlusSnapshot) { s.FI = []uint64{3, 50} })
	check("missing sample", func(s *PlusSnapshot) { s.Sample = nil })
	check("group family mismatch", func(s *PlusSnapshot) { s.High.SeedA++ })
	check("phase finalization mismatch", func(s *PlusSnapshot) {
		sample, _, _ := testPlusAggregators(t)
		s.Sample = SnapshotOfSketch(sample.Finalize())
	})
	check("matrix phase", func(s *PlusSnapshot) { s.Sample.Kind = SnapshotMatrix })
	pre := testPlusPhase1(t)
	pre.FI = []uint64{1}
	pre.Domain = 10
	pre.Theta = 0.1
	if _, err := EncodePlusSnapshot(pre); err == nil {
		t.Error("pre-advance snapshot with advance parameters accepted")
	}
}

// FuzzPlusReportsPayload drives the plus WAL payload decoder over
// arbitrary bytes: it must never panic, must reject anything that is
// not a valid group byte followed by whole in-bounds reports, and must
// be canonical — re-encoding an accepted payload reproduces the input
// bit for bit.
func FuzzPlusReportsPayload(f *testing.F) {
	p := snapParams()
	f.Add(AppendReportsPayload([]byte{byte(PlusSample)}, []core.Report{
		{Y: 1, Row: 0, Col: 0},
		{Y: -1, Row: 3, Col: 15},
	}))
	f.Add(AppendReportsPayload([]byte{byte(PlusHigh)}, nil))
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, ReportSize+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		group, reports, err := decodePlusReports(data, p)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if group > PlusHigh {
			t.Fatalf("accepted invalid group %d", group)
		}
		for i, r := range reports {
			if (r.Y != 1 && r.Y != -1) || int(r.Row) >= p.K || int(r.Col) >= p.M {
				t.Fatalf("accepted out-of-bounds report %d: %v", i, r)
			}
		}
		if !bytes.Equal(AppendReportsPayload([]byte{byte(group)}, reports), data) {
			t.Fatal("accepted payload is not canonical")
		}
	})
}

// FuzzPlusSnapshotRoundTrip drives the PSNP decoder — the input of
// POST /merge, the store's plus checkpoints and, through the merge
// route, the federator — over arbitrary bytes: it must never panic, and
// any composite it accepts must re-encode to exactly the input.
func FuzzPlusSnapshotRoundTrip(f *testing.F) {
	for _, name := range []string{"plus_phase1.snap", "plus_phase2.snap", "plus_finalized.snap"} {
		seed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)-1])
		f.Add(seed[:plusSnapHeaderSize])
	}
	f.Add([]byte("PSNP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodePlusSnapshot(data)
		if err != nil {
			return
		}
		re, err := EncodePlusSnapshot(s)
		if err != nil {
			t.Fatalf("decoded plus snapshot fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("encoding is not canonical: %d in, %d out", len(data), len(re))
		}
	})
}
