package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"ldpjoin/internal/dataset"
	"ldpjoin/internal/protocol"
)

// queryFixture is an in-memory server (mtParams) holding columns of
// every kind in both lifecycle states, which is what the read path's
// refusals are about:
//
//	finalized   A, B, D (join, attr 0)   C (join, attr 2)
//	            AB (matrix, attrs 0-1)   BC (matrix, attrs 1-2)
//	            P, Q (plus, one FI set)   R (plus, another FI set)
//	collecting  cJ (join)   cM (matrix)   cP1, cP (plus, phases 1 and 2)
type queryFixture struct {
	srv *Server
	h   http.Handler
}

// newQueryFixture builds the fixture; the caller closes f.srv.
func newQueryFixture(t *testing.T) *queryFixture {
	t.Helper()
	srv, err := NewWithOptions(mtParams, mtSeed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &queryFixture{srv: srv, h: srv.Handler()}
	do := func(name, route string, body []byte) {
		t.Helper()
		if rec := serve(f.h, "POST", "/v1/columns/"+name+"/"+route, body); rec.Code != 200 {
			t.Fatalf("%s %s: %d %s", name, route, rec.Code, rec.Body)
		}
	}
	data := dataset.Zipf(21, 2000, 300, 1.2)
	do("A", "reports", encodeAttrColumn(t, 0, 22, data))
	do("B", "reports", encodeAttrColumn(t, 0, 23, data))
	do("D", "reports", encodeAttrColumn(t, 0, 29, data))
	do("C", "reports?attr=2", encodeAttrColumn(t, 2, 24, data))
	do("cJ", "reports", encodeAttrColumn(t, 0, 25, data))
	do("AB", "reports", encodeMatrixColumn(t, 0, 26, data, data))
	do("BC", "reports?attr=1", encodeMatrixColumn(t, 1, 27, data, data))
	do("cM", "reports", encodeMatrixColumn(t, 0, 28, data, data))
	plus := lifecycleFixtures[protocol.KindPlus](t)
	for _, name := range []string{"P", "Q", "R", "cP"} {
		for _, rq := range plus[0] {
			if name == "R" && rq.route == "advance" {
				rq.body = []byte(`{"domain":300,"theta":0.05,"fi":[0,1]}`)
			}
			do(name, rq.route, rq.body)
		}
		do(name, plus[1][0].route, plus[1][0].body)
		do(name, plus[2][0].route, plus[2][0].body)
	}
	do("cP1", plus[0][0].route, plus[0][0].body)
	for _, name := range []string{"A", "B", "C", "D", "AB", "BC", "P", "Q", "R"} {
		do(name, "finalize", nil)
	}
	return f
}

// abortedFlight leaves an already-aborted computation in flight under
// key, as a panicking compute does for the instant before it is cleared:
// whoever asks for key coalesces onto it and is handed its error.
func (f *queryFixture) abortedFlight(key string) {
	fl := &flight{done: make(chan struct{}), err: errFlightAborted}
	close(fl.done)
	sh := f.srv.cache.shard(key)
	sh.mu.Lock()
	sh.flights[key] = fl
	sh.mu.Unlock()
}

// jsonMap is v as the JSON object a client would decode.
func jsonMap(t *testing.T, v any) map[string]any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%s: %v", data, err)
	}
	return m
}

// TestQueryRefusals is the read-side twin of TestOperationRefusals: the
// queries called directly — no HTTP — against every way their arguments
// can be wrong, pinning each refusal's status and envelope code; and for
// every accepted query, that the route serves exactly the direct result
// and that the memoized second answer is the first.
func TestQueryRefusals(t *testing.T) {
	f := newQueryFixture(t)
	defer f.srv.Close()
	s := f.srv

	pair := func(l, r string) func() (any, error) { return func() (any, error) { return s.joinPair(l, r) } }
	plus := func(l, r string) func() (any, error) { return func() (any, error) { return s.joinPlus(l, r) } }
	chain := func(names ...string) func() (any, error) {
		return func() (any, error) { return s.joinChain(names) }
	}
	freq := func(name string) func() (any, error) { return func() (any, error) { return s.frequency(name, 3) } }
	ab := func(a, b, p, q string) func() (any, error) {
		return func() (any, error) {
			plain, _, err := s.joinAB(a, b, p, q)
			return plain, err
		}
	}

	for _, tc := range []struct {
		name   string
		try    func() (any, error)
		status int
		code   string
	}{
		{"unknown column/pair left", pair("nope", "A"), 404, codeNotFound},
		{"unknown column/pair right", pair("A", "nope"), 404, codeNotFound},
		{"unknown column/plus", plus("P", "nope"), 404, codeNotFound},
		{"unknown column/chain", chain("A", "nope", "C"), 404, codeNotFound},
		{"unknown column/frequency", freq("nope"), 404, codeNotFound},
		{"unknown column/wins over a collecting one", pair("cJ", "nope"), 404, codeNotFound},
		{"unknown column/wins across both ?ab= arms", ab("cJ", "A", "P", "nope"), 404, codeNotFound},

		{"still collecting/pair", pair("A", "cJ"), 409, codeNotFinalized},
		{"still collecting/plus", plus("cP", "Q"), 409, codeNotFinalized},
		{"still collecting/chain", chain("A", "cM", "C"), 409, codeNotFinalized},
		{"still collecting/frequency", freq("cJ"), 409, codeNotFinalized},
		{"still collecting/?ab= plus arm", ab("A", "B", "P", "cP"), 409, codeNotFinalized},

		{"wrong kind/pair left is a matrix", pair("AB", "A"), 400, codeBadRequest},
		{"wrong kind/pair right is a matrix", pair("A", "AB"), 400, codeBadRequest},
		{"wrong kind/pair left is plus", pair("P", "A"), 400, codeBadRequest},
		{"wrong kind/pair right is plus", pair("A", "P"), 400, codeBadRequest},
		{"wrong kind/plus left is a join", plus("A", "P"), 400, codeBadRequest},
		{"wrong kind/plus right is a matrix", plus("P", "AB"), 400, codeBadRequest},
		{"wrong kind/chain left end is a matrix", chain("AB", "BC", "C"), 400, codeBadRequest},
		{"wrong kind/chain middle is a join", chain("A", "B", "C"), 400, codeBadRequest},
		{"wrong kind/chain right end is plus", chain("A", "AB", "P"), 400, codeBadRequest},
		{"wrong kind/frequency of a matrix", freq("AB"), 400, codeBadRequest},
		{"wrong kind/frequency of a plus", freq("P"), 400, codeBadRequest},
		{"wrong kind/?ab= plain arm is plus", ab("P", "Q", "P", "Q"), 400, codeBadRequest},
		{"wrong kind/?ab= plus arm is plain", ab("A", "D", "A", "D"), 400, codeBadRequest},

		// Found by this table: the pairwise estimator panics across hash
		// families, and nothing above it compared the columns' slots.
		{"pair across attribute slots", pair("A", "C"), 409, codeConflict},
		{"plus with itself", plus("P", "P"), 400, codeBadRequest},
		{"plus with itself/?ab= arm", ab("A", "D", "P", "P"), 400, codeBadRequest},
		{"plus columns with different FI", plus("P", "R"), 409, codeConflict},
		{"chain shorter than 3", chain("A", "C"), 400, codeBadRequest},
		{"chain slots out of order", chain("A", "BC", "C"), 409, codeConflict},

		{"flight aborted/pair", func() (any, error) {
			f.abortedFlight(pairJoinKey("A", "B"))
			return s.joinPair("A", "B")
		}, 500, codeInternal},
		{"flight aborted/self", func() (any, error) {
			f.abortedFlight(cacheKey("selfjoin", "A"))
			return s.joinPair("A", "A")
		}, 500, codeInternal},
		{"flight aborted/plus", func() (any, error) {
			f.abortedFlight(pairJoinKey("P", "Q"))
			return s.joinPlus("P", "Q")
		}, 500, codeInternal},
		{"flight aborted/chain", func() (any, error) {
			f.abortedFlight(cacheKey("chain", "A", "AB", "BC", "C"))
			return s.joinChain([]string{"A", "AB", "BC", "C"})
		}, 500, codeInternal},
		{"flight aborted/frequency", func() (any, error) {
			f.abortedFlight(cacheKey("freq", "A", "3"))
			return s.frequency("A", 3)
		}, 500, codeInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.try()
			var refusal *apiError
			if !errors.As(err, &refusal) {
				t.Fatalf("err = %v, want an apiError", err)
			}
			if refusal.status != tc.status || refusal.Code != tc.code {
				t.Fatalf("refused with %d %s (%s), want %d %s", refusal.status, refusal.Code, refusal.Message, tc.status, tc.code)
			}
		})
	}
	// The aborted flights above are still in the flight maps; a real one
	// is cleared by the compute that aborted.
	for i := range s.cache.shards {
		clear(s.cache.shards[i].flights)
	}

	for _, tc := range []struct {
		name, target string
		try          func() (any, error)
	}{
		{"pair", "/v1/join?left=A&right=B", pair("A", "B")},
		{"self", "/v1/join?left=A&right=A", pair("A", "A")},
		{"plus", "/v1/join?left=P&right=Q", plus("P", "Q")},
		{"chain", "/v1/join?path=A,AB,BC,C", chain("A", "AB", "BC", "C")},
		{"frequency", "/v1/frequency?column=A&value=3", freq("A")},
	} {
		t.Run("accepted/"+tc.name, func(t *testing.T) {
			direct, err := tc.try()
			if err != nil {
				t.Fatal(err)
			}
			first := jsonMap(t, direct)
			if first["cached"] != false {
				t.Fatalf("first answer is not a miss: %v", first)
			}
			rec := serve(f.h, "GET", tc.target, nil)
			var served map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil || rec.Code != 200 {
				t.Fatalf("GET %s: %d %s", tc.target, rec.Code, rec.Body)
			}
			again, err := tc.try()
			if err != nil {
				t.Fatal(err)
			}
			first["cached"] = true // the one field a hit may change
			if !reflect.DeepEqual(served, first) {
				t.Errorf("GET %s served %v, the query returned %v", tc.target, served, first)
			}
			if second := jsonMap(t, again); !reflect.DeepEqual(second, first) {
				t.Errorf("memoized answer %v differs from the first %v", second, first)
			}
		})
	}

	// ?ab= computes nothing of its own: both arms are the queries above.
	plain, _ := s.joinPair("A", "B")
	plusEst, _ := s.joinPlus("P", "Q")
	abPlain, abPlus, err := s.joinAB("A", "B", "P", "Q")
	if err != nil || abPlain != plain || abPlus != plusEst {
		t.Errorf("joinAB = %+v, %+v, %v; want the pair and plus answers %+v, %+v", abPlain, abPlus, err, plain, plusEst)
	}
}

// FuzzReadRoutes throws arbitrary column names and query strings at the
// routes that only read — /v1/join in its three modes, /v1/frequency,
// and a column's /fi, /sketch, /snapshot and status — on a server holding
// every kind of column in both states. Whatever arrives, the server must
// not panic, must answer 200 or the structured error envelope, and must
// not change anything: the column listing and every report count are the
// same afterwards.
func FuzzReadRoutes(f *testing.F) {
	const join, frequency, fi, sketch, snapshot, status = 0, 1, 2, 3, 4, 5
	routes := [...]string{join: "/v1/join", frequency: "/v1/frequency", fi: "/fi", sketch: "/sketch", snapshot: "/snapshot", status: ""}
	f.Add(uint8(join), "", "left=A&right=B")
	f.Add(uint8(join), "", "left=A&right=A")
	f.Add(uint8(join), "", "left=P&right=Q")
	f.Add(uint8(join), "", "left=P&right=R")
	f.Add(uint8(join), "", "left=AB&right=cJ")
	f.Add(uint8(join), "", "left=A&right=C") // once a panic: two join columns, two hash families
	f.Add(uint8(join), "", "path=A,AB,BC,C")
	f.Add(uint8(join), "", "path=A,,BC, C,")
	f.Add(uint8(join), "", "path=A,C")
	f.Add(uint8(join), "", "ab=A,B,P,Q&truth=1e6")
	f.Add(uint8(join), "", "ab=A,A,P,P&truth=-1")
	f.Add(uint8(join), "", "ab=A,B,P")
	f.Add(uint8(frequency), "", "column=A&value=007")
	f.Add(uint8(frequency), "", "column=AB&value=1")
	f.Add(uint8(frequency), "", "column=A&value=-1")
	f.Add(uint8(fi), "P", "")
	f.Add(uint8(fi), "cP", "domain=300&theta=0.05")
	f.Add(uint8(fi), "cP1", "domain=300&theta=0.05")
	f.Add(uint8(fi), "cP1", "domain=18446744073709551615&theta=0.5")
	f.Add(uint8(fi), "cJ", "")
	f.Add(uint8(sketch), "A", "")
	f.Add(uint8(sketch), "AB", "")
	f.Add(uint8(snapshot), "cM", "")
	f.Add(uint8(snapshot), "R", "")
	f.Add(uint8(status), "cP", "")
	f.Add(uint8(status), "a/b%2F\x00", "%zz;=&&")

	var fx *queryFixture
	f.Cleanup(func() {
		if fx != nil {
			fx.srv.Close()
		}
	})
	// state is everything a read must leave alone: the served listing,
	// and each column's report count read off the column itself.
	state := func() (listing string, counts map[string]float64) {
		counts = make(map[string]float64)
		fx.srv.mu.Lock()
		for name, col := range fx.srv.pending {
			counts[name] = float64(col.state.N())
		}
		for name, fin := range fx.srv.finished.view() {
			counts[name] = fin.n()
		}
		fx.srv.mu.Unlock()
		return serve(fx.h, "GET", "/v1/columns", nil).Body.String(), counts
	}
	f.Fuzz(func(t *testing.T, route uint8, name, query string) {
		if fx == nil {
			fx = newQueryFixture(t)
		}
		route %= uint8(len(routes))
		target := routes[route]
		if route >= fi {
			target = "/v1/columns/" + url.PathEscape(name) + target
		}
		listing, counts := state()

		r := httptest.NewRequest("GET", target, nil)
		r.URL.RawQuery = query // as it arrived: the handlers parse it leniently
		rec := httptest.NewRecorder()
		fx.h.ServeHTTP(rec, r)
		if r.Pattern == "" || rec.Code/100 == 3 {
			t.Skip("the mux answered for itself: a name that is no single path segment (empty, dots, a slash) reaches no route")
		}
		if rec.Code != http.StatusOK {
			var env map[string]errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code < 400 || env["error"].Code == "" || env["error"].Message == "" {
				t.Fatalf("GET %s?%s answered %d with no error envelope: %s", target, query, rec.Code, rec.Body)
			}
		}
		if after, afterCounts := state(); after != listing || !reflect.DeepEqual(afterCounts, counts) {
			t.Fatalf("GET %s?%s (%d) changed the columns:\n%s%v\n→\n%s%v", target, query, rec.Code, listing, counts, after, afterCounts)
		}
	})
}
