package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// FuzzMutatingRoutes throws arbitrary bodies and query strings at the
// three routes that reach the column operations. Whatever arrives, the
// server must not panic, must answer 200 or the structured error
// envelope, and — for /reports and /merge, which create columns — a
// refused first request must not leave its name registered: no phantom
// "collecting" column for a request that contributed nothing. /advance
// never creates a column, so it is fuzzed against a plus column seeded
// with a phase-1 sample.
func FuzzMutatingRoutes(f *testing.F) {
	p := core.Params{K: 4, M: 16, Epsilon: 2}
	const seed = 42
	fam := p.NewFamily(seed)
	rng := rand.New(rand.NewSource(1))
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	// reportStream frames 40 perturbed values under fam with a join
	// writer, or a plus writer of one group.
	type reportSink interface {
		Write(core.Report) error
		Flush() error
	}
	reportStream := func(fam *hashing.Family, open func(*bytes.Buffer) (reportSink, error)) []byte {
		var buf bytes.Buffer
		w, err := open(&buf)
		must(err)
		for d := uint64(0); d < 40; d++ {
			must(w.Write(core.Perturb(d%7, p, fam, rng)))
		}
		must(w.Flush())
		return buf.Bytes()
	}
	plusStream := func(group protocol.PlusGroup, fam *hashing.Family) []byte {
		return reportStream(fam, func(buf *bytes.Buffer) (reportSink, error) {
			return protocol.NewPlusReportWriter(buf, p, group)
		})
	}
	joinStream := reportStream(fam, func(buf *bytes.Buffer) (reportSink, error) {
		return protocol.NewReportWriter(buf, p)
	})
	var emptyStream bytes.Buffer // a header and no reports
	ew, err := protocol.NewReportWriter(&emptyStream, p)
	must(err)
	must(ew.Flush())
	sampleStream := plusStream(protocol.PlusSample, p.NewFamily(core.PlusSampleSeed(seed)))

	mp := core.MatrixParams{K: p.K, M1: p.M, M2: p.M, Epsilon: p.Epsilon}
	fam1 := hashing.NewFamily(hashing.AttributeSeed(seed, 1), p.K, p.M)
	var matrixStream bytes.Buffer
	mw, err := protocol.NewMatrixReportWriter(&matrixStream, mp)
	must(err)
	for d := uint64(0); d < 40; d++ {
		must(mw.Write(core.PerturbTuple(d%7, d%5, mp, fam, fam1, rng)))
	}
	must(mw.Flush())

	agg := core.NewAggregator(p, fam)
	for d := uint64(0); d < 40; d++ {
		agg.Add(core.Perturb(d%7, p, fam, rng))
	}
	unfinalized, err := protocol.EncodeSnapshot(protocol.SnapshotOfAggregator(agg))
	must(err)
	finalized, err := protocol.EncodeSnapshot(protocol.SnapshotOfSketch(agg.Finalize()))
	must(err)

	const reports, merge, advance = 0, 1, 2
	routes := [...]string{reports: "reports", merge: "merge", advance: "advance"}
	f.Add(uint8(reports), "", joinStream)
	f.Add(uint8(reports), "attr=1", joinStream)
	f.Add(uint8(reports), "attr=9", joinStream)
	f.Add(uint8(reports), "", matrixStream.Bytes())
	f.Add(uint8(reports), "", sampleStream)
	f.Add(uint8(reports), "", plusStream(protocol.PlusLow, p.NewFamily(core.PlusGroupSeed(seed))))
	f.Add(uint8(reports), "", plusStream(protocol.PlusHigh, p.NewFamily(core.PlusGroupSeed(seed))))
	f.Add(uint8(reports), "", emptyStream.Bytes())
	f.Add(uint8(reports), "attr=1", matrixStream.Bytes())
	f.Add(uint8(reports), "", joinStream[:len(joinStream)-3])
	f.Add(uint8(merge), "", unfinalized)
	f.Add(uint8(merge), "", finalized)
	f.Add(uint8(merge), "attr=1", unfinalized)
	f.Add(uint8(merge), "", unfinalized[:protocol.SnapshotHeaderSize])
	f.Add(uint8(advance), "domain=7&theta=0.1", []byte(nil))
	f.Add(uint8(advance), "", []byte(`{"domain":7,"theta":0.1,"fi":[3,1,1]}`))
	f.Add(uint8(advance), "theta=2", []byte(`{"domain":0}`))
	f.Add(uint8(advance), "domain=18446744073709551615&theta=0.5", []byte(nil)) // once a scan without end
	f.Add(uint8(reports), "", []byte("not a report stream"))

	// One server serves a run of iterations, each under a fresh column
	// name; it is replaced now and then so accepted columns do not pile
	// up for the length of a fuzzing session.
	const perServer = 256
	var srv *Server
	var handler http.Handler
	n := 0
	f.Cleanup(func() {
		if srv != nil {
			srv.Close()
		}
	})
	do := func(method, path, query string, body []byte) *httptest.ResponseRecorder {
		r := httptest.NewRequest(method, path, bytes.NewReader(body))
		r.URL.RawQuery = query // as it arrived: the handlers parse it leniently
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		return rec
	}
	f.Fuzz(func(t *testing.T, route uint8, query string, body []byte) {
		if n%perServer == 0 {
			if srv != nil {
				srv.Close()
			}
			var err error
			if srv, err = New(p, seed); err != nil {
				t.Fatal(err)
			}
			handler = srv.Handler()
		}
		n++
		name := fmt.Sprintf("c%d", n)
		route %= uint8(len(routes))
		if route == advance {
			if rec := do("POST", "/v1/columns/"+name+"/reports", "", sampleStream); rec.Code != 200 {
				t.Fatalf("seeding the plus column: %d %s", rec.Code, rec.Body)
			}
		}

		rec := do("POST", "/v1/columns/"+name+"/"+routes[route], query, body)
		if rec.Code == http.StatusOK {
			return
		}
		var env map[string]errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code < 400 || env["error"].Code == "" || env["error"].Message == "" {
			t.Fatalf("%s answered %d with no error envelope: %s", routes[route], rec.Code, rec.Body)
		}
		if route != advance {
			if status := do("GET", "/v1/columns/"+name, "", nil); status.Code != http.StatusNotFound {
				t.Fatalf("%s was refused (%d %s) but left column %s behind: %s", routes[route], rec.Code, env["error"].Code, name, status.Body)
			}
		}
	})
}
