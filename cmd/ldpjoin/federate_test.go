package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
	"ldpjoin/internal/service"
)

// fedWorld is the deployment the federation tests run in: the protocol
// configuration every collector, the federator and the clients share,
// and the loaders that play one client population into one collector.
// Every loader draws its reports from rngSeed alone, so playing the same
// loader into two servers feeds them the same bytes.
type fedWorld struct {
	t    *testing.T
	p    core.Params
	seed int64
}

const (
	fedDomain = uint64(50)
	fedTheta  = 0.1
)

// flags is the protocol configuration as federate flags.
func (w fedWorld) flags() []string {
	return []string{"-k", strconv.Itoa(w.p.K), "-m", strconv.Itoa(w.p.M),
		"-eps", fmt.Sprint(w.p.Epsilon), "-seed", fmt.Sprint(w.seed)}
}

// collector starts an in-process ldpjoind under the world's
// configuration, or under another seed.
func (w fedWorld) collector(seed int64) *httptest.Server {
	w.t.Helper()
	srv, err := service.New(w.p, seed)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	w.t.Cleanup(ts.Close)
	return ts
}

func (w fedWorld) post(ts *httptest.Server, path string, body []byte) {
	w.t.Helper()
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.t.Fatalf("POST %s: %s", path, apiError(resp))
	}
}

// stream encodes reports through the writer newWriter opens.
func stream[R any, W interface {
	Write(R) error
	Flush() error
}](t *testing.T, newWriter func(io.Writer) (W, error), reports []R) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := newWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (w fedWorld) family(attr int) *hashing.Family {
	return hashing.NewFamily(hashing.AttributeSeed(w.seed, attr), w.p.K, w.p.M)
}

// join loads n client reports into join column name of attribute attr.
func (w fedWorld) join(ts *httptest.Server, name string, attr int, rngSeed int64, n int) {
	rng, fam := rand.New(rand.NewSource(rngSeed)), w.family(attr)
	reports := make([]core.Report, n)
	for i := range reports {
		reports[i] = core.Perturb(uint64(i%30), w.p, fam, rng)
	}
	w.post(ts, "/v1/columns/"+name+"/reports?attr="+strconv.Itoa(attr),
		stream(w.t, func(b io.Writer) (*protocol.ReportWriter, error) { return protocol.NewReportWriter(b, w.p) }, reports))
}

// matrix loads n tuple reports into matrix column name over attributes
// (0, 1).
func (w fedWorld) matrix(ts *httptest.Server, name string, rngSeed int64, n int) {
	mp := core.MatrixParams{K: w.p.K, M1: w.p.M, M2: w.p.M, Epsilon: w.p.Epsilon}
	rng, famA, famB := rand.New(rand.NewSource(rngSeed)), w.family(0), w.family(1)
	reports := make([]core.MatrixReport, n)
	for i := range reports {
		reports[i] = core.PerturbTuple(uint64(i%30), uint64(i%20), mp, famA, famB, rng)
	}
	w.post(ts, "/v1/columns/"+name+"/reports",
		stream(w.t, func(b io.Writer) (*protocol.MatrixReportWriter, error) { return protocol.NewMatrixReportWriter(b, mp) }, reports))
}

// plus loads n reports of one phase group into plus column name; fi is
// the frozen frequent-item set the phase-2 groups perturb against.
func (w fedWorld) plus(ts *httptest.Server, name string, group protocol.PlusGroup, fi []uint64, rngSeed int64, n int) {
	rng, set := rand.New(rand.NewSource(rngSeed)), core.NewFISet(fi)
	famS, famG := w.p.NewFamily(core.PlusSampleSeed(w.seed)), w.p.NewFamily(core.PlusGroupSeed(w.seed))
	reports := make([]core.Report, n)
	for i := range reports {
		d := uint64(i) % fedDomain
		switch group {
		case protocol.PlusSample:
			reports[i] = core.Perturb(d, w.p, famS, rng)
		case protocol.PlusLow:
			reports[i] = core.FAPPerturb(d, core.ModeLow, set, w.p, famG, rng)
		case protocol.PlusHigh:
			reports[i] = core.FAPPerturb(d, core.ModeHigh, set, w.p, famG, rng)
		}
	}
	w.post(ts, "/v1/columns/"+name+"/reports",
		stream(w.t, func(b io.Writer) (*protocol.ReportWriter, error) { return protocol.NewPlusReportWriter(b, w.p, group) }, reports))
}

func (w fedWorld) advance(ts *httptest.Server, name string, fi []uint64) {
	body, err := json.Marshal(map[string]any{"domain": fedDomain, "theta": fedTheta, "fi": fi})
	if err != nil {
		w.t.Fatal(err)
	}
	w.post(ts, "/v1/columns/"+name+"/advance", body)
}

// plusColumn plays one share of plus column name per rngSeed into one
// server, the way a plus column must be played: every sample, one
// advance over fi, then both phase-2 groups of every share. A nil fi
// leaves the column in phase 1.
func (w fedWorld) plusColumn(ts *httptest.Server, name string, fi []uint64, rngSeeds ...int64) {
	for _, rngSeed := range rngSeeds {
		w.plus(ts, name, protocol.PlusSample, nil, rngSeed, 300)
	}
	if fi == nil {
		return
	}
	w.advance(ts, name, fi)
	for _, rngSeed := range rngSeeds {
		w.plus(ts, name, protocol.PlusLow, fi, rngSeed+1, 400)
		w.plus(ts, name, protocol.PlusHigh, fi, rngSeed+2, 350)
	}
}

func getBody(t *testing.T, h http.Handler, target string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %s", target, apiError(rec.Result()))
	}
	return rec.Body.Bytes()
}

// TestFederateEndToEnd runs the federator over two collectors that each
// hold a share of six columns — two join columns of attribute 0, one of
// attribute 1, a matrix column over (0, 1) and two advanced plus
// columns — and compares it with one server that ingested both shares
// itself: every finalized column's /snapshot bytes are identical, so
// the pair, plus and chain estimates the federator prints are the
// single node's.
func TestFederateEndToEnd(t *testing.T) {
	w := fedWorld{t: t, p: core.Params{K: 6, M: 64, Epsilon: 4}, seed: 21}
	fi := []uint64{1, 2}
	peers := []*httptest.Server{w.collector(w.seed), w.collector(w.seed)}
	refSrv, err := service.New(w.p, w.seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(refSrv.Close)
	ref := httptest.NewServer(refSrv.Handler())
	t.Cleanup(ref.Close)

	// Peer i's share goes into peer i and into the reference.
	for i, peer := range peers {
		rngSeed := int64(1000 * (i + 1))
		for _, ts := range []*httptest.Server{peer, ref} {
			w.join(ts, "A", 0, rngSeed+1, 2000-500*i)
			w.join(ts, "A2", 0, rngSeed+2, 1500)
			w.join(ts, "B", 1, rngSeed+3, 1800)
			w.matrix(ts, "AB", rngSeed+4, 1200+300*i)
		}
	}
	// A plus server advances once, after every sample it will see: the
	// reference takes both peers' samples first.
	for i, name := range []string{"P1", "P2"} {
		share0, share1 := int64(7000+100*i), int64(8000+100*i)
		w.plusColumn(peers[0], name, fi, share0)
		w.plusColumn(peers[1], name, fi, share1)
		w.plusColumn(ref, name, fi, share0, share1)
	}
	columns := []string{"A", "A2", "B", "AB", "P1", "P2"}
	for _, col := range columns {
		w.post(ref, "/v1/columns/"+col+"/finalize", nil)
	}

	// The federation, into a local server the test can read back.
	local, err := service.New(w.p, w.seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	var out bytes.Buffer
	f := &federator{local: local.Handler(), client: http.DefaultClient, out: &out}
	path := []string{"A", "AB", "B"}
	if err := f.run([]string{peers[0].URL, peers[1].URL}, columns, "P1", "P2", path); err != nil {
		t.Fatal(err)
	}
	for _, col := range columns {
		target := "/v1/columns/" + col + "/snapshot"
		if !bytes.Equal(getBody(t, local.Handler(), target), getBody(t, refSrv.Handler(), target)) {
			t.Errorf("column %s: federated snapshot differs from single-node ingestion of the union", col)
		}
	}

	// What the reference answers is what the federator must have printed.
	var plus struct{ Estimate, LowEstimate, HighEstimate float64 }
	var pair, chain struct{ Estimate float64 }
	for target, into := range map[string]any{
		"/v1/join?left=P1&right=P2": &plus,
		"/v1/join?left=A&right=A2":  &pair,
		"/v1/join?path=A,AB,B":      &chain,
	} {
		if err := json.Unmarshal(getBody(t, refSrv.Handler(), target), into); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{
		fmt.Sprintf("estimated |P1 ⋈ P2| over the federation: %.6g (low %.6g, high %.6g)\n", plus.Estimate, plus.LowEstimate, plus.HighEstimate),
		fmt.Sprintf("estimated |A ⋈ AB ⋈ B| over the federation: %.6g\n", chain.Estimate),
		fmt.Sprintf("pulled %-12s from %s", "A", peers[1].URL),
		"reports (matrix, attr 0, merged total 2700)",
		fmt.Sprintf("column %-12s merged join sketch (attr 1) over 3600 reports", "B"),
		fmt.Sprintf("column %-12s merged plus sketch (attr 0) over 2100 reports", "P1"),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("federate output lacks %q:\n%s", want, out.String())
		}
	}

	// The command itself — flags, the default pair, its own local server.
	out.Reset()
	args := append(w.flags(), "-peers", peers[0].URL+","+peers[1].URL, "-columns", "A,A2", "-path", "A,AB,B", "-join", "A,A2")
	if err := runFederate(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("estimated |A ⋈ A2| over the federation: %.6g\n", pair.Estimate),
		fmt.Sprintf("estimated |A ⋈ AB ⋈ B| over the federation: %.6g\n", chain.Estimate),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("ldpjoin federate output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestFederateRefusals: every peer the federation cannot merge exactly
// fails the command, by the check that owns it — the collector's own
// error for an unknown column, the merge route's for a foreign seed, a
// different frozen frequent-item set, or a column of another kind, and
// the federator's two for a finalized peer and a phase-1 plus peer.
func TestFederateRefusals(t *testing.T) {
	w := fedWorld{t: t, p: core.Params{K: 6, M: 64, Epsilon: 4}, seed: 21}
	good := w.collector(w.seed)
	w.join(good, "users", 0, 501, 500)
	w.plusColumn(good, "plus", []uint64{1, 2}, 600)

	otherSeed := w.collector(w.seed + 10_000)
	fedWorld{t: t, p: w.p, seed: w.seed + 10_000}.join(otherSeed, "users", 0, 502, 100)
	finalized := w.collector(w.seed)
	w.join(finalized, "users", 0, 503, 100)
	w.post(finalized, "/v1/columns/users/finalize", nil)
	phase1 := w.collector(w.seed)
	w.plusColumn(phase1, "plus", nil, 610)
	otherFI := w.collector(w.seed)
	w.plusColumn(otherFI, "plus", []uint64{3, 4}, 620)
	otherKind := w.collector(w.seed)
	w.matrix(otherKind, "users", 504, 100)

	for _, tc := range []struct {
		name, column string
		peers        []*httptest.Server
		want         string
	}{
		{"cross-seed peer", "users", []*httptest.Server{good, otherSeed}, "matches no attribute slot"},
		{"unknown column", "nope", []*httptest.Server{good}, "column_not_found"},
		{"finalized peer", "users", []*httptest.Server{good, finalized}, "pull before finalizing"},
		{"finalized first peer", "users", []*httptest.Server{finalized, good}, "pull before finalizing"},
		{"phase-1 plus peer", "plus", []*httptest.Server{phase1, good}, "has not advanced"},
		{"phase-1 plus peer, later", "plus", []*httptest.Server{good, phase1}, "phase-1 snapshot"},
		{"mismatched frozen FI", "plus", []*httptest.Server{good, otherFI}, "different frequent-item set"},
		{"kind disagreement", "users", []*httptest.Server{good, otherKind}, "is join state of attribute 0, not matrix"},
	} {
		var urls []string
		for _, ts := range tc.peers {
			urls = append(urls, ts.URL)
		}
		err := runFederate(append(w.flags(), "-peers", strings.Join(urls, ","), "-columns", tc.column), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// And the good peer alone federates.
	for _, column := range []string{"users", "plus"} {
		if err := runFederate(append(w.flags(), "-peers", good.URL, "-columns", column), io.Discard); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFederateErrorBodyNotTruncated pins the status-first read order: a
// collector's error body longer than one snapshot encoding must reach
// the returned error whole, not cut at a snapshot-size cap, and a body
// beyond the error cap must not be buffered without bound.
func TestFederateErrorBodyNotTruncated(t *testing.T) {
	w := fedWorld{t: t, p: core.Params{K: 2, M: 8, Epsilon: 4}, seed: 21}
	long := bytes.Repeat([]byte{'x'}, protocol.SnapshotEncodedSize(w.p)+50)
	long = append(long, []byte("END-OF-ERROR")...)
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusInternalServerError)
		rw.Write(long)
	}))
	t.Cleanup(ts.Close)
	err := runFederate(append(w.flags(), "-peers", ts.URL, "-columns", "users"), io.Discard)
	if err == nil {
		t.Fatal("non-200 response did not error")
	}
	if !strings.Contains(err.Error(), "END-OF-ERROR") {
		t.Fatalf("error body truncated at the snapshot-size cap: %v", err)
	}
	if !strings.Contains(err.Error(), "500") {
		t.Fatalf("error lost the status: %v", err)
	}

	huge := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusBadGateway)
		rw.Write(bytes.Repeat([]byte{'y'}, errBodyLimit+1000))
	}))
	t.Cleanup(huge.Close)
	err = runFederate(append(w.flags(), "-peers", huge.URL, "-columns", "users"), io.Discard)
	if err == nil {
		t.Fatal("non-200 response did not error")
	}
	if len(err.Error()) > errBodyLimit+200 {
		t.Fatalf("error body not capped: %d bytes", len(err.Error()))
	}
}

func TestSplitNonEmpty(t *testing.T) {
	got := splitNonEmpty(" a, ,b,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if out := splitNonEmpty(""); out != nil {
		t.Fatalf("empty input: got %v", out)
	}
}
