// The federate mode turns N independent ldpjoind collectors into one
// logical aggregation server: it pulls a SNAP snapshot of each named
// column from every collector, merges the unfinalized (exact integer)
// state per column, finalizes the merged aggregators locally, and
// answers join-size queries over the merged sketches. Because sketches
// are linear, the result is byte-identical to what a single collector
// ingesting every report would have produced — federation costs no
// accuracy and no privacy.
//
// Columns are kind-polymorphic, mirroring the service: a pulled
// snapshot may carry join (single-attribute), matrix (middle-table), or
// plus (two-phase composite, PSNP-framed) state, identified by its seed
// fingerprint against the shared attribute-family derivation. Plus
// snapshots must already be advanced, and every peer must have frozen
// the same frequent-item set — the phase boundary is part of the
// protocol, so collectors that disagree on it cannot merge exactly.
// With -path A,AB,BC,C the federator also answers a chain (multi-way)
// join over the merged sketches, validating that the named columns
// compose — join ends, matrix middles, adjacent attribute slots —
// exactly like the service's query planner.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// fedColumn is one column's merged state across the collectors.
type fedColumn struct {
	kind      protocol.Kind
	attr      int
	join      *core.Aggregator
	matrix    *core.MatrixAggregator
	finJoin   *core.Sketch
	finMatrix *core.MatrixSketch
	// Plus state: the three phase aggregators plus the frozen phase
	// boundary (domain, theta, FI) every peer must agree on.
	plusSample, plusLow, plusHigh *core.Aggregator
	plusMeta                      *protocol.PlusSnapshot
	finPlus                       *core.PlusState
}

func (c *fedColumn) n() float64 {
	switch c.kind {
	case protocol.KindMatrix:
		if c.finMatrix != nil {
			return c.finMatrix.N()
		}
		return c.matrix.N()
	case protocol.KindPlus:
		if c.finPlus != nil {
			return c.finPlus.Population()
		}
		return c.plusSample.N() + c.plusLow.N() + c.plusHigh.N()
	}
	if c.finJoin != nil {
		return c.finJoin.N()
	}
	return c.join.N()
}

func runFederate(args []string) error {
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

	params := core.Params{K: *k, M: *m, Epsilon: *eps}
	if err := params.Validate(); err != nil {
		return err
	}
	if *attrs < 2 {
		return fmt.Errorf("-attrs must be at least 2, got %d", *attrs)
	}
	mp := core.MatrixParams{K: *k, M1: *m, M2: *m, Epsilon: *eps}
	fams := make([]*hashing.Family, *attrs)
	for i := range fams {
		fams[i] = hashing.NewFamily(hashing.AttributeSeed(*seed, i), *k, *m)
	}
	client := &http.Client{Timeout: *timeout}

	merged := make(map[string]*fedColumn, len(columns))
	for _, col := range columns {
		var fed *fedColumn
		for _, peer := range peers {
			snap, plusSnap, err := fetchSnapshot(client, peer, col,
				int64(protocol.SnapshotEncodedSize(params)), int64(protocol.SnapshotEncodedSizeMatrix(mp)),
				int64(protocol.PlusSnapshotMaxEncodedSize(params)))
			if err != nil {
				return fmt.Errorf("pulling %q from %s: %w", col, peer, err)
			}
			if plusSnap != nil {
				if err := mergePlusPeer(&fed, plusSnap, params, *seed); err != nil {
					return fmt.Errorf("merging %q from %s: %w", col, peer, err)
				}
				fmt.Printf("pulled %-12s from %-28s %10.0f reports (%v, attr %d, merged total %.0f)\n",
					col, peer, plusSnap.N(), protocol.KindPlus, 0, fed.n())
				continue
			}
			kind, attr, err := snap.Slot(params, mp, fams)
			if err != nil {
				return fmt.Errorf("pulling %q from %s: %w", col, peer, err)
			}
			if fed == nil {
				fed = &fedColumn{kind: kind, attr: attr}
			} else if fed.kind != kind || fed.attr != attr {
				return fmt.Errorf("column %q: %s reports %v state of attribute %d, earlier peers %v of attribute %d",
					col, peer, kind, attr, fed.kind, fed.attr)
			}
			if kind == protocol.KindMatrix {
				agg, err := snap.MatrixAggregator()
				if err != nil {
					return fmt.Errorf("restoring %q from %s: %w", col, peer, err)
				}
				if fed.matrix == nil {
					fed.matrix = agg
				} else {
					fed.matrix.Merge(agg)
				}
			} else {
				agg, err := snap.Aggregator()
				if err != nil {
					return fmt.Errorf("restoring %q from %s: %w", col, peer, err)
				}
				if fed.join == nil {
					fed.join = agg
				} else {
					fed.join.Merge(agg)
				}
			}
			fmt.Printf("pulled %-12s from %-28s %10.0f reports (%v, attr %d, merged total %.0f)\n",
				col, peer, snap.N, kind, attr, fed.n())
		}
		switch fed.kind {
		case protocol.KindMatrix:
			fed.finMatrix = fed.matrix.Finalize()
		case protocol.KindPlus:
			fed.finPlus = &core.PlusState{
				Sample: fed.plusSample.Finalize(),
				Low:    fed.plusLow.Finalize(),
				High:   fed.plusHigh.Finalize(),
				Domain: fed.plusMeta.Domain,
				Theta:  fed.plusMeta.Theta,
				FI:     fed.plusMeta.FI,
			}
		default:
			fed.finJoin = fed.join.Finalize()
		}
		merged[col] = fed
	}

	fmt.Println()
	for _, col := range columns {
		fed := merged[col]
		fmt.Printf("column %-12s merged %v sketch (attr %d) over %.0f reports\n", col, fed.kind, fed.attr, fed.n())
	}

	if right != "" {
		skL, skR := merged[left], merged[right]
		if skL == nil || skR == nil {
			return fmt.Errorf("-join pair %s,%s must be among the pulled columns", left, right)
		}
		switch {
		case skL.kind == protocol.KindPlus && skR.kind == protocol.KindPlus:
			est, err := core.EstimateJoinPlusColumns(skL.finPlus, skR.finPlus)
			if err != nil {
				return fmt.Errorf("plus join %s,%s: %w", left, right, err)
			}
			fmt.Printf("\nestimated |%s ⋈ %s| over the federation: %.6g (low %.6g, high %.6g)\n",
				left, right, est.Estimate, est.LowEstimate, est.HighEstimate)
		case skL.kind == protocol.KindJoin && skR.kind == protocol.KindJoin:
			fmt.Printf("\nestimated |%s ⋈ %s| over the federation: %.6g\n", left, right, skL.finJoin.JoinSize(skR.finJoin))
		default:
			return fmt.Errorf("pairwise join needs two join columns or two plus columns (%s is %v, %s is %v); use -path for chains",
				left, skL.kind, right, skR.kind)
		}
	}

	if len(path) > 0 {
		est, err := chainEstimate(path, merged)
		if err != nil {
			return err
		}
		fmt.Printf("\nestimated |%s| over the federation: %.6g\n", strings.Join(path, " ⋈ "), est)
	}

	if right == "" && len(path) == 0 {
		fmt.Println("single column pulled; pass two columns (or -join / -path) for a join estimate")
	}
	return nil
}

// chainEstimate validates the chain's composition with the same shared
// rules the service's GET /v1/join?path= planner uses
// (protocol.ValidateChain), then composes the §VI estimator over the
// merged, finalized sketches.
func chainEstimate(path []string, merged map[string]*fedColumn) (float64, error) {
	cols := make([]*fedColumn, len(path))
	chain := make([]protocol.ChainColumn, len(path))
	for i, name := range path {
		col := merged[name]
		if col == nil {
			return 0, fmt.Errorf("chain column %q was not pulled", name)
		}
		cols[i] = col
		chain[i] = protocol.ChainColumn{Name: name, Kind: col.kind, Attr: col.attr}
	}
	if err := protocol.ValidateChain(chain); err != nil {
		return 0, err
	}
	last := len(cols) - 1
	mids := make([]*core.MatrixSketch, 0, len(cols)-2)
	for _, col := range cols[1:last] {
		mids = append(mids, col.finMatrix)
	}
	return core.ChainEstimate(cols[0].finJoin, mids, cols[last].finJoin), nil
}

// mergePlusPeer folds one peer's composite plus snapshot into the
// column's merged state. The first peer fixes the phase boundary; every
// later peer must have frozen the same domain, theta, and frequent-item
// set, or the merge would compose sketches built under different
// perturbation targets.
func mergePlusPeer(fed **fedColumn, snap *protocol.PlusSnapshot, params core.Params, seed int64) error {
	if err := snap.CompatibleWithPlus(params, seed); err != nil {
		return err
	}
	if snap.Finalized {
		return fmt.Errorf("column is finalized; federation merges unfinalized snapshots — pull before finalizing the collectors")
	}
	if !snap.Advanced {
		return fmt.Errorf("plus column has not advanced; advance every collector over the same frequent-item set before federating")
	}
	sample, err := snap.Sample.Aggregator()
	if err != nil {
		return err
	}
	low, err := snap.Low.Aggregator()
	if err != nil {
		return err
	}
	high, err := snap.High.Aggregator()
	if err != nil {
		return err
	}
	if *fed == nil {
		*fed = &fedColumn{
			kind: protocol.KindPlus, attr: 0,
			plusSample: sample, plusLow: low, plusHigh: high, plusMeta: snap,
		}
		return nil
	}
	c := *fed
	if c.kind != protocol.KindPlus {
		return fmt.Errorf("peer reports plus state, earlier peers %v", c.kind)
	}
	if c.plusMeta.Domain != snap.Domain || c.plusMeta.Theta != snap.Theta || !slices.Equal(c.plusMeta.FI, snap.FI) {
		return fmt.Errorf("peers froze different phase boundaries (domain %d vs %d, theta %v vs %v, |FI| %d vs %d)",
			c.plusMeta.Domain, snap.Domain, c.plusMeta.Theta, snap.Theta, len(c.plusMeta.FI), len(snap.FI))
	}
	c.plusSample.Merge(sample)
	c.plusLow.Merge(low)
	c.plusHigh.Merge(high)
	return nil
}

// errBodyLimit caps how much of a non-200 response body is read into an
// error message.
const errBodyLimit = 4 << 10

// fetchSnapshot fetches one column's snapshot bytes from one collector
// and decodes them, verifying integrity. The response is read in two
// stages — header first, then a body bounded by the size the header's
// declared kind justifies (join snapshots are ~1000× smaller than
// matrix ones at equal parameters), the same discipline the service's
// merge handler applies — so a misbehaving peer cannot make the
// federator buffer a matrix-sized blob for a join column. A PSNP-framed
// body decodes as a composite plus snapshot and comes back in the
// second return value instead. Finalized join/matrix snapshots are
// refused: merging them cannot be exact, and a federated collector
// should stay unfinalized until the federator has pulled everything.
func fetchSnapshot(client *http.Client, peer, column string, joinLimit, matrixLimit, plusLimit int64) (*protocol.Snapshot, *protocol.PlusSnapshot, error) {
	u := strings.TrimSuffix(peer, "/") + "/v1/columns/" + url.PathEscape(column) + "/snapshot"
	resp, err := client.Get(u)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Check the status before sizing any read: the snapshot-size cap
		// below is meaningless for an error body, and applying it first
		// used to truncate error messages longer than one snapshot.
		return nil, nil, fmt.Errorf("%s: %s", u, apiError(resp))
	}
	header := make([]byte, protocol.SnapshotHeaderSize)
	if _, err := io.ReadFull(resp.Body, header); err != nil {
		return nil, nil, fmt.Errorf("%s: reading snapshot header: %w", u, err)
	}
	isPlus := protocol.IsPlusSnapshot(header)
	limit := joinLimit
	if isPlus {
		limit = plusLimit
	} else {
		kind, err := protocol.PeekSnapshotKind(header)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", u, err)
		}
		if kind == protocol.SnapshotMatrix {
			limit = matrixLimit
		}
	}
	rest, err := io.ReadAll(io.LimitReader(resp.Body, limit-int64(len(header))+1))
	if err != nil {
		return nil, nil, err
	}
	data := append(header, rest...)
	if int64(len(data)) > limit {
		return nil, nil, fmt.Errorf("%s: snapshot exceeds %d bytes for its kind under this configuration", u, limit)
	}
	if isPlus {
		plusSnap, err := protocol.DecodePlusSnapshot(data)
		if err != nil {
			return nil, nil, err
		}
		return nil, plusSnap, nil
	}
	snap, err := protocol.DecodeSnapshot(data)
	if err != nil {
		return nil, nil, err
	}
	if snap.Finalized {
		return nil, nil, fmt.Errorf("%s: column is finalized; federation merges unfinalized snapshots — pull before finalizing the collectors", u)
	}
	return snap, nil, nil
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
