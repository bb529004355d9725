// The federate mode turns N independent ldpjoind collectors into one
// logical aggregation server, and it does so by being one: an in-memory
// ldpjoind (service.Server) fed through its own POST /merge. Each
// collector's GET /snapshot body is piped into the local server's merge
// route, the merged columns are finalized there, and the join query is
// the local GET /v1/join. Because sketches are linear, the result is
// byte-identical to what a single collector ingesting every report
// would have produced — federation costs no accuracy and no privacy.
//
// Everything a merge must check is therefore checked by the one merge
// path: the body bound its declared kind justifies (before buffering),
// CRC, the seed fingerprint and attribute slot, kind and slot agreement
// across peers, the plus phase boundary every peer must have frozen
// identically, chain composition for -path. The federator adds only the
// two refusals a collector does not make: a finalized peer (a server
// would import it; a federation cannot merge it exactly) and a plus
// peer still in phase 1 (a server would wait for its advance; a
// federation finalizes now).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/service"
)

// federator is the local in-memory server and the client that feeds it.
type federator struct {
	local  http.Handler
	client *http.Client
	out    io.Writer
}

// columnStatus is what GET /v1/columns/{name} says of a local column.
type columnStatus struct {
	Kind    string  `json:"kind"`
	Attr    int     `json:"attr"`
	Reports float64 `json:"reports"`
	Phase   int     `json:"phase"` // plus columns while collecting: 1 or 2
}

func runFederate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("federate", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `Usage: ldpjoin federate -peers URL[,URL...] -columns A,B [flags]

Pull column snapshots from ldpjoind collectors, merge them exactly, and
estimate the join size of the first two columns (or the -join pair).
With -path A,AB,BC,C the named chain is pulled, merged, validated (join
ends, matrix middles, adjacent attribute slots), and estimated as a
multi-way join. The protocol configuration (-k, -m, -eps, -seed,
-attrs) must match the collectors'.

`)
		fs.PrintDefaults()
	}
	peersFlag := fs.String("peers", "", "comma-separated base URLs of ldpjoind collectors (e.g. http://a:8080,http://b:8080)")
	columnsFlag := fs.String("columns", "", "comma-separated column names to pull and merge")
	joinFlag := fs.String("join", "", "left,right column pair to estimate (default: the first two columns)")
	pathFlag := fs.String("path", "", "chain A,AB,BC,C to estimate as a multi-way join (its columns are pulled automatically)")
	k := fs.Int("k", 18, "sketch depth (rows)")
	m := fs.Int("m", 1024, "sketch width (columns, power of two)")
	eps := fs.Float64("eps", 4, "privacy budget epsilon")
	seed := fs.Int64("seed", 1, "public hash seed (shared with clients and collectors)")
	attrs := fs.Int("attrs", 4, "join-attribute hash families derived from the seed (must cover every pulled column's slot)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	_ = fs.Parse(args)

	peers := splitNonEmpty(*peersFlag)
	columns := splitNonEmpty(*columnsFlag)
	path := splitNonEmpty(*pathFlag)
	// The chain's columns are pulled alongside the explicit ones.
	seen := make(map[string]bool, len(columns)+len(path))
	for _, c := range columns {
		seen[c] = true
	}
	for _, c := range path {
		if !seen[c] {
			columns = append(columns, c)
			seen[c] = true
		}
	}
	if len(peers) == 0 || len(columns) == 0 {
		fs.Usage()
		return fmt.Errorf("federate needs -peers and -columns (or -path)")
	}
	// Checked here as well as by the local planner: before anything is
	// pulled, not after.
	if len(path) > 0 && len(path) < 3 {
		return fmt.Errorf("-path needs at least 3 columns (join end, matrix middle(s), join end), got %d", len(path))
	}
	left, right := "", ""
	if *joinFlag != "" {
		pair := splitNonEmpty(*joinFlag)
		if len(pair) != 2 {
			return fmt.Errorf("-join wants exactly left,right, got %q", *joinFlag)
		}
		left, right = pair[0], pair[1]
	} else if len(path) == 0 && len(columns) > 1 {
		left, right = columns[0], columns[1]
	}

	srv, err := service.NewWithOptions(core.Params{K: *k, M: *m, Epsilon: *eps}, *seed, service.Options{Attributes: *attrs})
	if err != nil {
		return err
	}
	defer srv.Close()
	f := &federator{local: srv.Handler(), client: &http.Client{Timeout: *timeout}, out: out}
	return f.run(peers, columns, left, right, path)
}

// run pulls every column from every peer into the local server,
// finalizes them there, and prints the local server's answers: the
// left ⋈ right estimate when right is set, the chain estimate when path
// is.
func (f *federator) run(peers, columns []string, left, right string, path []string) error {
	for _, col := range columns {
		for _, peer := range peers {
			if err := f.pull(peer, col); err != nil {
				return err
			}
		}
		if err := f.do(http.MethodPost, columnPath(col)+"/finalize", nil, nil); err != nil {
			return fmt.Errorf("finalizing %q: %w", col, err)
		}
	}

	fmt.Fprintln(f.out)
	for _, col := range columns {
		var st columnStatus
		if err := f.do(http.MethodGet, columnPath(col), nil, &st); err != nil {
			return err
		}
		fmt.Fprintf(f.out, "column %-12s merged %s sketch (attr %d) over %.0f reports\n", col, st.Kind, st.Attr, st.Reports)
	}

	if right != "" {
		var est struct {
			Kind                      string
			Estimate                  float64
			LowEstimate, HighEstimate float64
		}
		if err := f.do(http.MethodGet, "/v1/join?"+url.Values{"left": {left}, "right": {right}}.Encode(), nil, &est); err != nil {
			return fmt.Errorf("join %s,%s: %w", left, right, err)
		}
		fmt.Fprintf(f.out, "\nestimated |%s ⋈ %s| over the federation: %.6g", left, right, est.Estimate)
		if est.Kind == "plus" {
			fmt.Fprintf(f.out, " (low %.6g, high %.6g)", est.LowEstimate, est.HighEstimate)
		}
		fmt.Fprintln(f.out)
	}

	if len(path) > 0 {
		var est struct{ Estimate float64 }
		if err := f.do(http.MethodGet, "/v1/join?"+url.Values{"path": {strings.Join(path, ",")}}.Encode(), nil, &est); err != nil {
			return fmt.Errorf("chain %s: %w", strings.Join(path, ","), err)
		}
		fmt.Fprintf(f.out, "\nestimated |%s| over the federation: %.6g\n", strings.Join(path, " ⋈ "), est.Estimate)
	}

	if right == "" && len(path) == 0 {
		fmt.Fprintln(f.out, "single column pulled; pass two columns (or -join / -path) for a join estimate")
	}
	return nil
}

func columnPath(col string) string { return "/v1/columns/" + url.PathEscape(col) }

// do runs one request against the local server in-process and decodes a
// 200's JSON body into into (when non-nil); anything else is the
// server's error envelope, rendered.
func (f *federator) do(method, target string, body io.Reader, into any) error {
	rec := httptest.NewRecorder()
	f.local.ServeHTTP(rec, httptest.NewRequest(method, target, body))
	if rec.Code != http.StatusOK {
		return errors.New(apiError(rec.Result()))
	}
	if into == nil {
		return nil
	}
	return json.NewDecoder(rec.Body).Decode(into)
}

// errBodyLimit caps how much of a non-200 response body is read into an
// error message.
const errBodyLimit = 4 << 10

// pull pipes one collector's snapshot of col into the local column. The
// status is checked before the body is touched (an error body is not a
// snapshot, and is read whole up to errBodyLimit); the body itself is
// never buffered here — the merge route reads the snapshot header, then
// at most the bytes that header's kind justifies.
func (f *federator) pull(peer, col string) error {
	u := strings.TrimSuffix(peer, "/") + columnPath(col) + "/snapshot"
	resp, err := f.client.Get(u)
	if err != nil {
		return fmt.Errorf("pulling %q from %s: %w", col, peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pulling %q from %s: %s: %s", col, peer, u, apiError(resp))
	}
	if resp.Header.Get("X-Ldpjoin-Finalized") == "true" {
		return fmt.Errorf("pulling %q from %s: column is finalized; federation merges unfinalized snapshots — pull before finalizing the collectors", col, peer)
	}
	var ack struct{ Merged float64 }
	if err := f.do(http.MethodPost, columnPath(col)+"/merge", resp.Body, &ack); err != nil {
		return fmt.Errorf("merging %q from %s: %w", col, peer, err)
	}
	var st columnStatus
	if err := f.do(http.MethodGet, columnPath(col), nil, &st); err != nil {
		return err
	}
	// A phase-1 snapshot merges into a phase-1 column, so the local
	// server took it; the federation cannot wait for its advance.
	if st.Phase == 1 {
		return fmt.Errorf("merging %q from %s: plus column has not advanced; advance every collector over the same frequent-item set before federating", col, peer)
	}
	fmt.Fprintf(f.out, "pulled %-12s from %-28s %10.0f reports (%s, attr %d, merged total %.0f)\n",
		col, peer, ack.Merged, st.Kind, st.Attr, st.Reports)
	return nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
