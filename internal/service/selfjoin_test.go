package service

import (
	"bytes"
	"math"
	"net/http/httptest"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/join"
	"ldpjoin/internal/ldp"
	"ldpjoin/internal/protocol"
)

// TestServedSelfJoin pins GET /v1/join?left=A&right=A to the exact
// second frequency moment: a column joined with itself must serve
// core's noise-corrected SelfJoinSize, not the pairwise product — which
// for a sketch against itself is inflated by n·(m·k·c_ε²−1), here to about
// 3.6× the truth. Seeded: 50,000 Zipf-1.1 users over 4,096 values.
func TestServedSelfJoin(t *testing.T) {
	_, ts, p := testServer(t)
	data := dataset.Zipf(11, 50000, 4096, 1.1)
	stream := encodeColumn(t, p, 12, data)
	if code, out := post(t, ts.URL+"/v1/columns/A/reports", stream); code != 200 {
		t.Fatalf("ingest: %d %v", code, out)
	}
	if code, out := post(t, ts.URL+"/v1/columns/A/finalize", nil); code != 200 {
		t.Fatalf("finalize: %d %v", code, out)
	}
	code, out := get(t, ts.URL+"/v1/join?left=A&right=A")
	if code != 200 || out["cached"] != false {
		t.Fatalf("self join: %d %v", code, out)
	}
	served := out["estimate"].(float64)
	truth := join.F2(data)

	// The paper's Theorem 5 bound with both sides the same column …
	n := float64(len(data))
	ceps := ldp.CEpsilon(p.Epsilon)
	bound := 4 / math.Sqrt(float64(p.M)) * math.Pow(n+(float64(p.K)*ceps*ceps-1)/2, 2)
	if math.Abs(served-truth) > bound {
		t.Errorf("served F2 %.4g is outside the paper's bound ±%.3g of the exact %.4g", served, bound, truth)
	}
	// … which at this n is loose enough to admit the inflated product
	// too, so pin the estimate itself: a few percent off, not 3.6×.
	if re := math.Abs(served-truth) / truth; re > 0.10 {
		t.Errorf("served F2 %.4g vs exact %.4g: relative error %.3f, want ≤ 0.10", served, truth, re)
	}
	// The served value is the in-process estimator's, exactly, and the
	// uncorrected product would have failed both checks above.
	rd, err := protocol.NewBatchReader(bytes.NewReader(stream), p)
	if err != nil {
		t.Fatal(err)
	}
	agg := core.NewAggregator(p, p.NewFamily(42))
	for _, r := range drainBatches(t, rd.Next) {
		agg.Add(r)
	}
	sk := agg.Finalize()
	if want := sk.SelfJoinSize(); served != want {
		t.Errorf("served %v, in-process SelfJoinSize %v", served, want)
	}
	naive := sk.JoinSize(sk)
	t.Logf("exact F2 %.4g, served %.4g, naive self product %.4g, paper bound ±%.3g", truth, served, naive, bound)
	if math.Abs(naive-truth)/truth < 1 {
		t.Errorf("the naive self product %.4g is unexpectedly close to %.4g; the test no longer separates the two estimators", naive, truth)
	}

	// Memoized under its own key: the second ask is a hit, and a pairwise
	// query never sees the self-join's entry.
	if _, out := get(t, ts.URL+"/v1/join?left=A&right=A"); out["cached"] != true || out["estimate"].(float64) != served {
		t.Errorf("second self join: %v", out)
	}

	// The ?ab= comparison's plain arm is the same query, not a second
	// implementation: with the column repeated it serves the same F2, bit
	// for bit (it once served the naive product logged above).
	for _, col := range []string{"P", "Q"} {
		finalizePlusColumn(t, ts.URL, col, p)
	}
	code, out = get(t, ts.URL+"/v1/join?ab=A,A,P,Q")
	if code != 200 {
		t.Fatalf("?ab= with a repeated plain column: %d %v", code, out)
	}
	if got := out["plain"].(map[string]any)["estimate"].(float64); got != served {
		t.Errorf("?ab=A,A,… plain arm serves %v, /v1/join?left=A&right=A serves %v", got, served)
	}
}

// finalizePlusColumn drives an empty-FI plus column through both phases
// and finalizes it: the smallest finalized plus column a query can name.
func finalizePlusColumn(t *testing.T, base, name string, p core.Params) {
	t.Helper()
	famS, famG := plusFams(p)
	data := dataset.Zipf(13, 300, 50, 1.2)
	for _, rq := range []lifecycleReq{
		{"reports", encodePlusStream(t, p, protocol.PlusSample, perturbSample(p, famS, 14, data[:100]))},
		{"advance", []byte(`{"domain":50,"theta":0.05,"fi":[]}`)},
		{"reports", encodePlusStream(t, p, protocol.PlusLow, perturbFAP(p, famG, core.ModeLow, core.NewFISet(nil), 15, data[100:200]))},
		{"reports", encodePlusStream(t, p, protocol.PlusHigh, perturbFAP(p, famG, core.ModeHigh, core.NewFISet(nil), 16, data[200:]))},
		{"finalize", nil},
	} {
		if code, out := post(t, base+"/v1/columns/"+name+"/"+rq.route, rq.body); code != 200 {
			t.Fatalf("%s %s: %d %v", name, rq.route, code, out)
		}
	}
}

// TestPlusSelfJoinRefused: a plus column paired with itself has no
// corrected estimator, so it is refused rather than served inflated.
func TestPlusSelfJoinRefused(t *testing.T) {
	srv, err := NewWithOptions(mtParams, mtSeed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, seg := range lifecycleFixtures[protocol.KindPlus](t) {
		for _, rq := range seg {
			if code, out := post(t, ts.URL+"/v1/columns/P/"+rq.route, rq.body); code != 200 {
				t.Fatalf("%s: %d %v", rq.route, code, out)
			}
		}
	}
	if code, out := post(t, ts.URL+"/v1/columns/P/finalize", nil); code != 200 {
		t.Fatalf("finalize: %d %v", code, out)
	}
	// The ?ab= plus arm is the same query, so it refuses the same way
	// (it once answered 200 with the uncorrected self products).
	if code, out := post(t, ts.URL+"/v1/columns/A/reports", lifecycleFixtures[protocol.KindJoin](t)[0][0].body); code != 200 {
		t.Fatalf("ingest A: %d %v", code, out)
	}
	if code, out := post(t, ts.URL+"/v1/columns/A/finalize", nil); code != 200 {
		t.Fatalf("finalize A: %d %v", code, out)
	}
	for _, target := range []string{"/v1/join?left=P&right=P", "/v1/join?ab=A,A,P,P"} {
		code, out := get(t, ts.URL+target)
		if c, _, _ := envelope(t, out); code != 400 || c != codeBadRequest {
			t.Fatalf("%s: %d %v, want 400 bad_request", target, code, out)
		}
	}
}
