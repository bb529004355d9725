package service

import (
	"bytes"
	"fmt"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/protocol"
)

// lifecycleReq is one mutating request of a lifecycle script, relative
// to the column: POST /v1/columns/<name>/<route>.
type lifecycleReq struct {
	route string
	body  []byte
}

// lifecycleFixtures supplies, per column kind, the three request
// segments the shared script plays. Everything is pre-perturbed, so
// every server in the script ingests identical bytes. A plus column's
// phase boundary rides in the first segment: sample stream then an
// advance with an explicit FI, so the later segments — and the snapshot
// the script federates — are phase-2.
var lifecycleFixtures = map[protocol.Kind]func(t *testing.T) [3][]lifecycleReq{
	protocol.KindJoin: func(t *testing.T) (segs [3][]lifecycleReq) {
		data := dataset.Zipf(61, 3000, 300, 1.2)
		for i := range segs {
			segs[i] = []lifecycleReq{{"reports", encodeAttrColumn(t, 0, int64(70+i), data[i*1000:(i+1)*1000])}}
		}
		return segs
	},
	protocol.KindMatrix: func(t *testing.T) (segs [3][]lifecycleReq) {
		a, b := dataset.Zipf(62, 3000, 300, 1.2), dataset.Zipf(63, 3000, 300, 1.2)
		for i := range segs {
			lo, hi := i*1000, (i+1)*1000
			segs[i] = []lifecycleReq{{"reports", encodeMatrixColumn(t, 0, int64(80+i), a[lo:hi], b[lo:hi])}}
		}
		return segs
	},
	protocol.KindPlus: func(t *testing.T) (segs [3][]lifecycleReq) {
		const domain = 300
		fi := []uint64{0, 1, 2, 3, 5, 8}
		sample, low, high := splitPlus(64, dataset.Zipf(64, 3000, domain, 1.3), 0.3)
		famS, famG := plusFams(mtParams)
		set := core.NewFISet(fi)
		advance := fmt.Sprintf(`{"domain":%d,"theta":0.05,"fi":%s}`, domain, jsonUints(fi))
		segs[0] = []lifecycleReq{
			{"reports", encodePlusStream(t, mtParams, protocol.PlusSample, perturbSample(mtParams, famS, 90, sample))},
			{"advance", []byte(advance)},
		}
		segs[1] = []lifecycleReq{{"reports", encodePlusStream(t, mtParams, protocol.PlusLow,
			perturbFAP(mtParams, famG, core.ModeLow, set, 91, low))}}
		segs[2] = []lifecycleReq{{"reports", encodePlusStream(t, mtParams, protocol.PlusHigh,
			perturbFAP(mtParams, famG, core.ModeHigh, set, 92, high))}}
		return segs
	},
}

// TestColumnLifecycleEveryKind plays one script against every entry of
// the kind table: ingest → live /snapshot → /merge into a second server
// → background checkpoint mid-ingest → kill (no shutdown checkpoint) →
// reopen → finalize; and, from a copy of the killed server's directory,
// reopen → graceful Shutdown → reopen → finalize. The recovered servers
// and the federated one must each export bytes identical to an
// uninterrupted single-node run — the mutating path is one
// implementation, and this is the one script that holds every kind to
// it.
func TestColumnLifecycleEveryKind(t *testing.T) {
	for kind := range kinds {
		fixture, ok := lifecycleFixtures[kind]
		if !ok {
			t.Fatalf("kind %v is in the kind table but has no lifecycle fixture", kind)
		}
		t.Run(kind.String(), func(t *testing.T) {
			segs := fixture(t)
			play := func(base string, seg []lifecycleReq) {
				t.Helper()
				for _, rq := range seg {
					if code, out := post(t, base+"/v1/columns/L/"+rq.route, rq.body); code != 200 {
						t.Fatalf("%s: %d %v", rq.route, code, out)
					}
				}
			}
			finalized := func(base string) []byte {
				t.Helper()
				if code, out := post(t, base+"/v1/columns/L/finalize", nil); code != 200 {
					t.Fatalf("finalize: %d %v", code, out)
				}
				return getSnapshot(t, base, "L")
			}

			// The uninterrupted single-node run.
			_, ref := matrixServer(t, "")
			for _, seg := range segs {
				play(ref.URL, seg)
			}
			want := finalized(ref.URL)

			dir := t.TempDir()
			srv, ts := matrixServer(t, dir)
			play(ts.URL, segs[0])
			play(ts.URL, segs[1])

			// Federate the live state into a second collector, which then
			// ingests the last segment itself.
			_, peer := matrixServer(t, "")
			if code, out := post(t, peer.URL+"/v1/columns/L/merge", getSnapshot(t, ts.URL, "L")); code != 200 {
				t.Fatalf("merge: %d %v", code, out)
			}
			play(peer.URL, segs[2])
			if got := finalized(peer.URL); !bytes.Equal(got, want) {
				t.Fatal("federated column's export differs from the single-node run")
			}

			// Background checkpoint mid-ingest, more ingest, then a kill:
			// recovery restores the checkpoint and replays only the tail.
			if err := srv.CheckpointNow("L"); err != nil {
				t.Fatal(err)
			}
			if n := srv.st.Stats().BackgroundCheckpoints; n != 1 {
				t.Fatalf("background checkpoints = %d, want 1", n)
			}
			play(ts.URL, segs[2])
			crash(t, srv, ts)
			graceful := t.TempDir()
			copyDataDir(t, dir, graceful)

			srv2, ts2 := matrixServer(t, dir)
			defer srv2.Close()
			defer ts2.Close()
			if rec := srv2.recovered; rec.Checkpoints != 1 || rec.Columns != 1 {
				t.Fatalf("recovery restored %+v, want 1 column from 1 checkpoint", rec)
			}
			if got := finalized(ts2.URL); !bytes.Equal(got, want) {
				t.Fatal("recovered column's export differs from the single-node run")
			}

			// A graceful Shutdown checkpoints the recovered column whole:
			// the reopened server restores it and replays no WAL.
			srv3, ts3 := matrixServer(t, graceful)
			ts3.Close()
			if err := srv3.Shutdown(); err != nil {
				t.Fatalf("graceful shutdown: %v", err)
			}
			srv4, ts4 := matrixServer(t, graceful)
			defer srv4.Close()
			defer ts4.Close()
			if rec := srv4.recovered; rec.Checkpoints != 1 || rec.Columns != 1 || rec.Reports != 0 || rec.Merges != 0 {
				t.Fatalf("reopen after shutdown restored %+v, want 1 column from 1 checkpoint and no WAL records", rec)
			}
			if got := finalized(ts4.URL); !bytes.Equal(got, want) {
				t.Fatal("column reopened after a graceful shutdown exports differently from the single-node run")
			}
		})
	}
}
