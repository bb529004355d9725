package service

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"slices"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/protocol"
)

// opFixture is a durable server holding one collecting join column "J"
// and one collecting plus column "P" (phase 1), with the pieces the
// operations consume: batch sets, peer snapshots, an advance request.
type opFixture struct {
	srv  *Server
	base string
	join *pendingColumn
	plus *pendingColumn
	full *pendingColumn // nil unless a row's arrange step makes one

	joinReports, sample, low []core.Report
	joinSnap, plusSnap       []byte // unfinalized exports of a peer's J and (phase-1) P
	advance                  advanceRequest
}

func newOpFixture(t *testing.T) *opFixture {
	t.Helper()
	const domain = 300
	f := &opFixture{advance: advanceRequest{Domain: domain, Theta: 0.05, FI: []uint64{0, 1, 2, 3, 5, 8}}}
	joinStream := encodeAttrColumn(t, 0, 7, dataset.Zipf(7, 500, domain, 1.2))
	f.joinReports = decodeStreamReports(t, joinStream)
	famS, famG := plusFams(mtParams)
	sample, low, _ := splitPlus(8, dataset.Zipf(8, 900, domain, 1.3), 0.3)
	f.sample = perturbSample(mtParams, famS, 9, sample)
	f.low = perturbFAP(mtParams, famG, core.ModeLow, core.NewFISet(f.advance.FI), 10, low)
	sampleStream := encodePlusStream(t, mtParams, protocol.PlusSample, f.sample)

	seed := func(base string) {
		t.Helper()
		for _, rq := range []struct {
			col  string
			body []byte
		}{{"J", joinStream}, {"P", sampleStream}} {
			if code, out := post(t, base+"/v1/columns/"+rq.col+"/reports", rq.body); code != 200 {
				t.Fatalf("seeding %s: %d %v", rq.col, code, out)
			}
		}
	}
	_, peer := matrixServer(t, "")
	seed(peer.URL)
	f.joinSnap, f.plusSnap = getSnapshot(t, peer.URL, "J"), getSnapshot(t, peer.URL, "P")

	var ts *httptest.Server
	f.srv, ts = matrixServer(t, t.TempDir())
	t.Cleanup(f.srv.Close)
	t.Cleanup(ts.Close)
	f.base = ts.URL
	seed(f.base)
	_, f.join = f.srv.lookup("J")
	_, f.plus = f.srv.lookup("P")
	return f
}

// Fresh batch sets per call: the reports operation owns what it is given.
func (f *opFixture) joinSet() batchSet { return oneBatch(slices.Clone(f.joinReports)) }
func (f *opFixture) plusSet(g protocol.PlusGroup, reports []core.Report) batchSet {
	return plusBatches{oneBatch(slices.Clone(reports)), g}
}

// cancelledSnap encodes an unfinalized snapshot of a column of kind in
// attribute slot 0 holding n reports whose signs all cancelled: every
// count zero, any even n. A plus snapshot is a phase-1 one.
func cancelledSnap(t *testing.T, kind protocol.Kind, n float64) []byte {
	t.Helper()
	join := func(seed int64) *protocol.Snapshot {
		counts := make([][]int32, mtParams.K)
		for j := range counts {
			counts[j] = make([]int32, mtParams.M)
		}
		return &protocol.Snapshot{Kind: protocol.SnapshotJoin, K: mtParams.K, M1: mtParams.M, Epsilon: mtParams.Epsilon,
			SeedA: seed, N: n, Counts: counts}
	}
	var snap protocol.ColumnSnapshot
	switch kind {
	case protocol.KindJoin:
		snap = join(mtFam(0).Seed())
	case protocol.KindPlus:
		famS, _ := plusFams(mtParams)
		snap = &protocol.PlusSnapshot{Sample: join(famS.Seed())}
	default:
		snap = &protocol.Snapshot{Kind: protocol.SnapshotMatrix, K: mtMatrix.K, M1: mtMatrix.M1, M2: mtMatrix.M2, Epsilon: mtMatrix.Epsilon,
			SeedA: mtFam(0).Seed(), SeedB: mtFam(1).Seed(), N: n, Runs: make([][]core.MatrixEntry, mtMatrix.K)}
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decodeSnap(t *testing.T, data []byte) protocol.ColumnSnapshot {
	t.Helper()
	snap, err := protocol.DecodeColumnSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestOperationRefusals calls register and the three operations
// directly — no HTTP — against a server in each refusing state, and pins
// the refusal's status and envelope code together with the thing a
// refusal must never do: change a column's report count or the WAL.
func TestOperationRefusals(t *testing.T) {
	// The states.
	closeServer := func(t *testing.T, f *opFixture) { f.srv.Close() }
	finalizeBoth := func(t *testing.T, f *opFixture) {
		for _, path := range []string{"/P/advance?domain=300&theta=0.05", "/J/finalize", "/P/finalize"} {
			if code, out := post(t, f.base+"/v1/columns"+path, nil); code != 200 {
				t.Fatalf("%s: %d %v", path, code, out)
			}
		}
	}
	// The finalize race: the store seals the logs (final.snap written)
	// while the operations still hold the collecting columns.
	sealLogs := func(t *testing.T, f *opFixture) {
		famS, famG := plusFams(mtParams)
		join := protocol.SnapshotOfSketch(core.NewAggregator(mtParams, mtFam(0)).Finalize())
		plus := protocol.PlusSnapshotOfState(&core.PlusState{
			Sample: core.NewAggregator(mtParams, famS).Finalize(),
			Low:    core.NewAggregator(mtParams, famG).Finalize(),
			High:   core.NewAggregator(mtParams, famG).Finalize(),
			Domain: 300, Theta: 0.05, FI: []uint64{},
		})
		if err := f.srv.st.Finalize("J", 0, join); err != nil {
			t.Fatal(err)
		}
		if err := f.srv.st.Finalize("P", 0, plus); err != nil {
			t.Fatal(err)
		}
	}
	advancePlus := func(t *testing.T, f *opFixture) {
		if _, err := f.srv.advance(f.plus, f.advance); err != nil {
			t.Fatal(err)
		}
	}
	asIs := func(*testing.T, *opFixture) {}
	// A column "F" of kind two reports short of the int32 count limit, by
	// merging a peer's state of MaxReports−1 reports whose signs
	// cancelled.
	nearlyFull := func(kind protocol.Kind) func(*testing.T, *opFixture) {
		return func(t *testing.T, f *opFixture) {
			col, err := f.srv.register("F", kind, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			data := cancelledSnap(t, kind, core.MaxReports-1)
			if _, err := f.srv.merge(col, decodeSnap(t, data), data); err != nil {
				t.Fatal(err)
			}
			f.full = col
		}
	}
	// fullReports offers n reports to F, of its kind.
	fullReports := func(n int) func(*testing.T, *opFixture) error {
		return func(t *testing.T, f *opFixture) error {
			var batch batchSet
			switch f.full.kind {
			case protocol.KindMatrix:
				batch = oneBatch(slices.Repeat([]core.MatrixReport{{Y: 1}}, n))
			case protocol.KindPlus:
				batch = plusBatches{oneBatch(slices.Repeat([]core.Report{{Y: 1}}, n)), protocol.PlusSample}
			default:
				batch = oneBatch(slices.Repeat([]core.Report{{Y: 1}}, n))
			}
			_, err := f.srv.reports(f.full, batch)
			return err
		}
	}
	fullMerge := func(t *testing.T, f *opFixture) error {
		data := cancelledSnap(t, f.full.kind, 2)
		_, err := f.srv.merge(f.full, decodeSnap(t, data), data)
		return err
	}

	// The attempts.
	registerJoin := func(t *testing.T, f *opFixture) error {
		_, err := f.srv.register("J", protocol.KindJoin, 0, f.joinSet())
		return err
	}
	reportsJoin := func(t *testing.T, f *opFixture) error {
		_, err := f.srv.reports(f.join, f.joinSet())
		return err
	}
	mergeJoin := func(t *testing.T, f *opFixture) error {
		_, err := f.srv.merge(f.join, decodeSnap(t, f.joinSnap), f.joinSnap)
		return err
	}
	advanceExplicit := func(t *testing.T, f *opFixture) error {
		_, err := f.srv.advance(f.plus, f.advance)
		return err
	}
	advanceComputed := func(t *testing.T, f *opFixture) error {
		_, err := f.srv.advance(f.plus, advanceRequest{Domain: 300, Theta: 0.05})
		return err
	}
	mergePlusPhase1 := func(t *testing.T, f *opFixture) error {
		_, err := f.srv.merge(f.plus, decodeSnap(t, f.plusSnap), f.plusSnap)
		return err
	}

	for _, tc := range []struct {
		name    string
		arrange func(*testing.T, *opFixture)
		try     func(*testing.T, *opFixture) error
		status  int
		code    string
	}{
		{"closed server/register", closeServer, registerJoin, 503, codeServerClosed},
		{"closed server/reports", closeServer, reportsJoin, 503, codeServerClosed},
		{"closed server/advance explicit", closeServer, advanceExplicit, 503, codeServerClosed},
		{"closed server/advance computed", closeServer, advanceComputed, 503, codeServerClosed},
		{"closed server/merge", closeServer, mergeJoin, 503, codeServerClosed},

		{"finalized column/register", finalizeBoth, registerJoin, 409, codeFinalized},
		{"finalized column/register of another kind", finalizeBoth, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.register("J", protocol.KindMatrix, 0, nil)
			return err
		}, 409, codeFinalized},
		{"finalized column/collecting", finalizeBoth, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.collecting("P")
			return err
		}, 409, codeFinalized},
		{"finalized column/reports", finalizeBoth, reportsJoin, 409, codeFinalized},
		{"finalized column/merge", finalizeBoth, mergeJoin, 409, codeFinalized},
		{"unknown column/collecting", asIs, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.collecting("nope")
			return err
		}, 404, codeNotFound},

		{"kind mismatch/register", asIs, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.register("J", protocol.KindMatrix, 0, nil)
			return err
		}, 409, codeConflict},
		{"attr mismatch/register", asIs, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.register("J", protocol.KindJoin, 1, f.joinSet())
			return err
		}, 409, codeConflict},
		{"kind mismatch/advance", asIs, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.advance(f.join, f.advance)
			return err
		}, 409, codeConflict},

		{"wrong phase/group reports in phase 1", asIs, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.reports(f.plus, f.plusSet(protocol.PlusLow, f.low))
			return err
		}, 409, codeConflict},
		{"wrong phase/group reports claim a fresh name", asIs, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.register("Q", protocol.KindPlus, 0, f.plusSet(protocol.PlusLow, f.low))
			if _, col := f.srv.lookup("Q"); col != nil {
				t.Error("the refused first request left column Q registered")
			}
			return err
		}, 409, codeConflict},
		{"wrong phase/sample reports in phase 2", advancePlus, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.reports(f.plus, f.plusSet(protocol.PlusSample, f.sample))
			return err
		}, 409, codeConflict},
		{"wrong phase/phase-1 snapshot into phase 2", advancePlus, mergePlusPhase1, 409, codeConflict},

		{"sealed log/reports", sealLogs, reportsJoin, 409, codeFinalized},
		{"sealed log/advance", sealLogs, advanceExplicit, 409, codeFinalized},
		{"sealed log/merge", sealLogs, mergeJoin, 409, codeFinalized},
		{"sealed log/merge plus", sealLogs, mergePlusPhase1, 409, codeFinalized},

		// Found by FuzzMutatingRoutes: the proposal scan is O(domain) under
		// the column's locks, and ?domain= is the client's to choose.
		{"unbounded scan/advance computed", asIs, func(t *testing.T, f *opFixture) error {
			_, err := f.srv.advance(f.plus, advanceRequest{Domain: 1 << 40, Theta: 0.05})
			return err
		}, 409, codeConflict},

		{"count limit/matrix reports", nearlyFull(protocol.KindMatrix), fullReports(2), 409, codeConflict},
		{"count limit/matrix merge", nearlyFull(protocol.KindMatrix), fullMerge, 409, codeConflict},
		{"count limit/join reports", nearlyFull(protocol.KindJoin), fullReports(2), 409, codeConflict},
		{"count limit/join merge", nearlyFull(protocol.KindJoin), fullMerge, 409, codeConflict},
		{"count limit/plus reports", nearlyFull(protocol.KindPlus), fullReports(2), 409, codeConflict},
		{"count limit/plus merge", nearlyFull(protocol.KindPlus), fullMerge, 409, codeConflict},

		{"duplicate advance/explicit", advancePlus, advanceExplicit, 409, codeConflict},
		{"duplicate advance/computed", advancePlus, advanceComputed, 409, codeConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newOpFixture(t)
			tc.arrange(t, f)
			nJoin, nPlus, wal := f.join.state.N(), f.plus.state.N(), f.srv.st.Stats()
			var nFull int64
			if f.full != nil {
				nFull = f.full.state.N()
			}

			err := tc.try(t, f)
			var refusal *apiError
			if !errors.As(err, &refusal) {
				t.Fatalf("err = %v, want an apiError", err)
			}
			if refusal.status != tc.status || refusal.Code != tc.code {
				t.Fatalf("refused with %d %s (%s), want %d %s", refusal.status, refusal.Code, refusal.Message, tc.status, tc.code)
			}
			if f.join.state.N() != nJoin || f.plus.state.N() != nPlus {
				t.Errorf("a refusal changed a report count: J %d → %d, P %d → %d", nJoin, f.join.state.N(), nPlus, f.plus.state.N())
			}
			if after := f.srv.st.Stats(); after.Appends != wal.Appends || after.Bytes != wal.Bytes {
				t.Errorf("a refusal reached the WAL: %d appends / %d bytes → %d / %d", wal.Appends, wal.Bytes, after.Appends, after.Bytes)
			}
			if f.full != nil {
				if got := f.full.state.N(); got != nFull {
					t.Errorf("a refusal changed F's report count: %d → %d", nFull, got)
				}
				// Refused, not poisoned: the column still takes what fits,
				// and finalizes (a plus column once it has advanced).
				if err := fullReports(1)(t, f); err != nil {
					t.Errorf("F refused a report that fits: %v", err)
				}
				if f.full.kind == protocol.KindPlus {
					if code, out := post(t, f.base+"/v1/columns/F/advance?domain=300&theta=0.05", nil); code != 200 {
						t.Errorf("advancing F after the refusal: %d %v", code, out)
					}
				}
				if code, out := post(t, f.base+"/v1/columns/F/finalize", nil); code != 200 {
					t.Errorf("finalizing F after the refusal: %d %v", code, out)
				}
			}
		})
	}
}

// TestReplayIsLive holds recovery to the claim that it has no bodies of
// its own: for every entry of the kind table, a script of all three
// operations driven over HTTP into a durable server, and the same script
// fed by the store through recoverer after a kill, leave byte-identical
// /snapshot bodies and equal report counts. The "adopt" variant crosses
// a plus column's phase boundary inside the merge operation instead of
// by its own advance.
func TestReplayIsLive(t *testing.T) {
	for kind := range kinds {
		segs := lifecycleFixtures[kind](t)
		// The peer whose live export the script merges: past the phase
		// boundary, for the kind that has one.
		_, peer := matrixServer(t, "")
		for _, rq := range slices.Concat(segs[0], segs[1]) {
			if code, out := post(t, peer.URL+"/v1/columns/L/"+rq.route, rq.body); code != 200 {
				t.Fatalf("peer %s: %d %v", rq.route, code, out)
			}
		}
		merge := lifecycleReq{"merge", getSnapshot(t, peer.URL, "L")}

		scripts := map[string][]lifecycleReq{"own": slices.Concat(segs[0], []lifecycleReq{merge}, segs[2])}
		if len(segs[0]) > 1 {
			scripts["adopt"] = slices.Concat(segs[0][:1], []lifecycleReq{merge}, segs[2])
		}
		for variant, script := range scripts {
			t.Run(kind.String()+"/"+variant, func(t *testing.T) {
				dir := t.TempDir()
				live, ts := matrixServer(t, dir)
				for _, rq := range script {
					if code, out := post(t, ts.URL+"/v1/columns/L/"+rq.route, rq.body); code != 200 {
						t.Fatalf("%s: %d %v", rq.route, code, out)
					}
				}
				_, col := live.lookup("L")
				wantN, want := col.state.N(), getSnapshot(t, ts.URL, "L")
				crash(t, live, ts)

				replayed, ts2 := matrixServer(t, dir)
				defer replayed.Close()
				defer ts2.Close()
				if rec := replayed.recovered; rec.Columns != 1 || rec.Checkpoints != 0 || rec.Merges != 1 {
					t.Fatalf("recovery restored %+v, want 1 column and its 1 merge replayed from the WAL alone", rec)
				}
				_, col = replayed.lookup("L")
				if col == nil {
					t.Fatal("replay did not rebuild the collecting column")
				}
				if got := col.state.N(); got != wantN {
					t.Errorf("replayed N = %d, live N = %d", got, wantN)
				}
				if got := getSnapshot(t, ts2.URL, "L"); !bytes.Equal(got, want) {
					t.Error("replayed column's /snapshot differs from the live column's")
				}
			})
		}
	}
}
