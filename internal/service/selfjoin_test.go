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
	code, out := get(t, ts.URL+"/v1/join?left=P&right=P")
	if c, _, _ := envelope(t, out); code != 400 || c != codeBadRequest {
		t.Fatalf("plus self join: %d %v, want 400 bad_request", code, out)
	}
}
