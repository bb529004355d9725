package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"ldpjoin/internal/race"
)

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== t: demo ==", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,bb\n1,2\n333,4\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestTableAddRowPanicsOnArity(t *testing.T) {
	tab := &Table{ID: "t", Columns: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.AddRow("1", "2")
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "paper"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ScaleByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := ScaleByName("nope"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 12 {
		t.Fatalf("expected 12 experiments, got %d", len(ids))
	}
	for _, id := range ids {
		if _, err := Get(id); err != nil {
			t.Errorf("Get(%q): %v", id, err)
		}
	}
	if _, err := Get("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// parseCell parses a rendered numeric cell.
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

// TestFig5TinySmoke runs the headline accuracy experiment at tiny scale
// and checks the paper's qualitative shape: the sketch methods land
// within sane relative error while k-RR and FLH blow up on large domains.
func TestFig5TinySmoke(t *testing.T) {
	tabs := Fig5(ScaleTiny)
	if len(tabs) != 1 {
		t.Fatalf("fig5 produced %d tables", len(tabs))
	}
	tab := tabs[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("fig5 has %d rows, want 6", len(tab.Rows))
	}
	idx := map[string]int{}
	for i, c := range tab.Columns {
		idx[c] = i
	}
	for _, row := range tab.Rows {
		fagms := parseCell(t, row[idx["FAGMS"]])
		ldpjs := parseCell(t, row[idx["LDPJoinSketch"]])
		if math.IsNaN(fagms) || math.IsNaN(ldpjs) {
			t.Errorf("%s: NaN cells", row[0])
		}
		// The non-private anchor must be at least as good as everything
		// else within noise; sanity: it should be below 50% RE everywhere.
		if fagms > 0.5 {
			t.Errorf("%s: FAGMS RE %.3f implausibly large", row[0], fagms)
		}
	}
}

// TestFig7CommunicationShape checks the paper's Fig 7 finding: the
// hadamard-encoded mechanisms (HCMS, LDPJoinSketch) transmit at least an
// order of magnitude fewer bits than k-RR.
func TestFig7CommunicationShape(t *testing.T) {
	tab := Fig7(ScaleTiny)[0]
	idx := map[string]int{}
	for i, c := range tab.Columns {
		idx[c] = i
	}
	for _, row := range tab.Rows {
		krr := parseCell(t, row[idx["k-RR"]])
		ldpjs := parseCell(t, row[idx["LDPJoinSketch"]])
		hcms := parseCell(t, row[idx["Apple-HCMS"]])
		if ldpjs*1.01 >= krr {
			t.Errorf("%s: LDPJoinSketch bits %.0f not below k-RR %.0f", row[0], ldpjs, krr)
		}
		if ldpjs != hcms {
			t.Errorf("%s: LDPJoinSketch and HCMS should transmit identical bits (%.0f vs %.0f)",
				row[0], ldpjs, hcms)
		}
	}
}

func TestTable2MatchesSpecs(t *testing.T) {
	tab := Table2(ScaleTiny)[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("table2 rows = %d", len(tab.Rows))
	}
	if tab.Rows[2][0] != "movielens" || tab.Rows[2][1] != "83239" {
		t.Fatalf("movielens row wrong: %v", tab.Rows[2])
	}
}

// TestFig10And11RunTiny smoke-tests the plus-only sweeps.
func TestFig10And11RunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke test")
	}
	tenTab := Fig10(ScaleTiny)[0]
	if len(tenTab.Rows) != 5 {
		t.Fatalf("fig10 rows = %d", len(tenTab.Rows))
	}
	for _, row := range tenTab.Rows {
		if v := parseCell(t, row[1]); math.IsNaN(v) || v < 0 {
			t.Errorf("fig10 r=%s AE=%v", row[0], v)
		}
	}
	eleven := Fig11(ScaleTiny)[0]
	if len(eleven.Rows) != 8 {
		t.Fatalf("fig11 rows = %d", len(eleven.Rows))
	}
}

// TestFig13ReportsTimings checks the efficiency table exists with
// positive offline costs and cheap online costs for sketch methods. The
// online < offline ordering is a wall-clock comparison with a thin
// margin at tiny scale, which the race detector's slowdown overturns,
// so it is asserted only without it.
func TestFig13ReportsTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke test")
	}
	tab := Fig13(ScaleTiny)[0]
	if len(tab.Rows) != 3*6 {
		t.Fatalf("fig13 rows = %d, want 18", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		off := parseCell(t, row[2])
		on := parseCell(t, row[3])
		if off <= 0 {
			t.Errorf("%s/%s: offline %.6f not positive", row[0], row[1], off)
		}
		if row[1] == "LDPJoinSketch" && !race.Enabled && on > off {
			t.Errorf("%s: LDPJoinSketch online %.6f exceeds offline %.6f", row[0], on, off)
		}
	}
}

// TestFig15RunsTiny smoke-tests the multiway experiment end to end on a
// single epsilon by reusing its internals.
func TestFig15ChainBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("multiway smoke test")
	}
	ct := newChainTask(ScaleTiny)
	if ct.truth3 <= 0 || ct.truth4 <= 0 {
		t.Fatalf("degenerate chain truths: %g, %g", ct.truth3, ct.truth4)
	}
	// Non-private COMPASS should be close.
	est := compassChain(ct, ct.mids, ct.tEnd, 1)
	if re := math.Abs(est-ct.truth3) / ct.truth3; re > 0.5 {
		t.Errorf("COMPASS 3-way RE = %.3f", re)
	}
	// The LDP chain at a generous budget should be in the ballpark.
	est = ldpChain(ct, ct.mids, ct.tEnd, 8, 2)
	if re := math.Abs(est-ct.truth3) / ct.truth3; re > 1.5 {
		t.Errorf("LDP 3-way RE = %.3f", re)
	}
	// Pair-encoded k-RR must produce a finite estimate.
	if est := krrChain3(ct, 4, 3); math.IsNaN(est) || math.IsInf(est, 0) {
		t.Errorf("k-RR chain produced %v", est)
	}
}

func TestZipfTaskTruthPositive(t *testing.T) {
	task := ZipfTask(1.5, ScaleTiny)
	if task.Truth <= 0 || len(task.A) == 0 {
		t.Fatalf("degenerate task: truth=%g n=%d", task.Truth, len(task.A))
	}
}
