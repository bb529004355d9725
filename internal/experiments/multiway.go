package experiments

import (
	"fmt"
	"math/rand"

	"ldpjoin/internal/core"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/join"
	"ldpjoin/internal/ldp"
	"ldpjoin/internal/metrics"
	"ldpjoin/internal/sketch"
)

// chainTask is a multiway chain-join fixture:
// T1(A) ⋈ T2(A,B) [⋈ T3(B,C) ⋈ T4(C)] with Zipf(1.5) columns.
type chainTask struct {
	t1, tEnd []uint64
	mids     []join.PairTable
	domain   uint64
	truth3   float64
	truth4   float64
	mids4    []join.PairTable
	tEnd4    []uint64
}

// multiwayDomain caps the chain domain so the pair-encoded baselines
// (domain²) stay tractable at any scale.
func multiwayDomain(sc Scale) uint64 {
	d := dataset.ZipfSpec(1.5).DomainAt(sc.Frac)
	if d > 512 {
		d = 512
	}
	return d
}

func newChainTask(sc Scale) chainTask {
	spec := dataset.ZipfSpec(1.5)
	n := spec.Size(sc.Frac)
	domain := multiwayDomain(sc)
	gen := func(seed int64) []uint64 { return dataset.Zipf(seed, n, domain, 1.5) }

	ct := chainTask{domain: domain}
	ct.t1 = gen(101)
	ct.tEnd = gen(102)
	ct.mids = []join.PairTable{{A: gen(103), B: gen(104)}}
	ct.truth3 = join.ChainSize(ct.t1, ct.mids, ct.tEnd)

	ct.mids4 = []join.PairTable{ct.mids[0], {A: gen(105), B: gen(106)}}
	ct.tEnd4 = gen(107)
	ct.truth4 = join.ChainSize(ct.t1, ct.mids4, ct.tEnd4)
	return ct
}

// multiwaySketchWidth is the per-dimension width of the chain sketches,
// shared by both arms. A middle table costs the COMPASS arm k·m² dense
// counters, which is why it is kept moderate; the LDP arm holds a middle
// table as sparse runs of report counts, so its cost follows the reports
// rather than m². Changing the width changes fig15.
const multiwaySketchWidth = 256

// compassChain runs the non-private COMPASS baseline over the chain.
func compassChain(ct chainTask, mids []join.PairTable, tEnd []uint64, seed int64) float64 {
	const k = 9
	fams := make([]*hashing.Family, len(mids)+1)
	for i := range fams {
		fams[i] = hashing.NewFamily(seed+int64(i), k, multiwaySketchWidth)
	}
	left := sketch.NewFastAGMS(fams[0])
	left.UpdateAll(ct.t1)
	right := sketch.NewFastAGMS(fams[len(fams)-1])
	right.UpdateAll(tEnd)
	mats := make([]*sketch.CompassMatrix, len(mids))
	for i, mid := range mids {
		mats[i] = sketch.NewCompassMatrix(fams[i], fams[i+1])
		mats[i].UpdateAll(mid.A, mid.B)
	}
	return sketch.CompassChain(left, mats, right)
}

// ldpChain runs the paper's multiway LDPJoinSketch over the chain.
func ldpChain(ct chainTask, mids []join.PairTable, tEnd []uint64, eps float64, seed int64) float64 {
	const k = 9
	endP := core.Params{K: k, M: multiwaySketchWidth, Epsilon: eps}
	midP := core.MatrixParams{K: k, M1: multiwaySketchWidth, M2: multiwaySketchWidth, Epsilon: eps}
	fams := make([]*hashing.Family, len(mids)+1)
	for i := range fams {
		fams[i] = hashing.NewFamily(seed+int64(i), k, multiwaySketchWidth)
	}
	rng := rand.New(rand.NewSource(seed))

	aggL := core.NewAggregator(endP, fams[0])
	aggL.CollectColumn(ct.t1, rng)
	aggR := core.NewAggregator(endP, fams[len(fams)-1])
	aggR.CollectColumn(tEnd, rng)
	mats := make([]*core.MatrixSketch, len(mids))
	for i, mid := range mids {
		agg := core.NewMatrixAggregator(midP, fams[i], fams[i+1])
		agg.CollectTable(mid.A, mid.B, rng)
		mats[i] = agg.Finalize()
	}
	return core.ChainEstimate(aggL.Finalize(), mats, aggR.Finalize())
}

// pairEncode packs a tuple into a single value over domain².
func pairEncode(a, b, domain uint64) uint64 { return a*domain + b }

// krrChain3 runs the k-RR baseline on the 3-way chain: end tables use
// plain k-RR; the middle table perturbs pair-encoded tuples over domain².
func krrChain3(ct chainTask, eps float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	d := ct.domain
	k1 := ldp.NewKRR(d, eps)
	k1.Collect(ct.t1, rng)
	k3 := ldp.NewKRR(d, eps)
	k3.Collect(ct.tEnd, rng)
	k2 := ldp.NewKRR(d*d, eps)
	mid := ct.mids[0]
	for i := range mid.A {
		k2.Add(k2.Perturb(pairEncode(mid.A[i], mid.B[i], d), rng))
	}
	var est float64
	for a := uint64(0); a < d; a++ {
		fa := k1.Frequency(a)
		if fa == 0 {
			continue
		}
		for b := uint64(0); b < d; b++ {
			est += fa * k2.Frequency(pairEncode(a, b, d)) * k3.Frequency(b)
		}
	}
	return est
}

// hcmsChain3 runs the Apple-HCMS baseline on the 3-way chain with
// pair-encoded middle tuples.
func hcmsChain3(ct chainTask, eps float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	d := ct.domain
	const k, m = 9, 1024
	h1 := ldp.NewHCMS(hashing.NewFamily(seed, k, m), eps)
	h1.Collect(ct.t1, rng)
	h1.Finalize()
	h3 := ldp.NewHCMS(hashing.NewFamily(seed+1, k, m), eps)
	h3.Collect(ct.tEnd, rng)
	h3.Finalize()
	h2 := ldp.NewHCMS(hashing.NewFamily(seed+2, k, m), eps)
	mid := ct.mids[0]
	for i := range mid.A {
		h2.Add(h2.Perturb(pairEncode(mid.A[i], mid.B[i], d), rng))
	}
	h2.Finalize()

	f1 := make([]float64, d)
	f3 := make([]float64, d)
	for v := uint64(0); v < d; v++ {
		f1[v] = h1.Frequency(v)
		f3[v] = h3.Frequency(v)
	}
	var est float64
	for a := uint64(0); a < d; a++ {
		if f1[a] == 0 {
			continue
		}
		for b := uint64(0); b < d; b++ {
			est += f1[a] * h2.Frequency(pairEncode(a, b, d)) * f3[b]
		}
	}
	return est
}

// flhChain3 runs the FLH baseline on the 3-way chain with pair-encoded
// middle tuples. The pool is reduced to keep the domain² scan tractable.
func flhChain3(ct chainTask, eps float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	d := ct.domain
	const pool = 64
	f1 := ldp.NewFLH(seed, pool, eps)
	f1.Collect(ct.t1, rng)
	f3 := ldp.NewFLH(seed+1, pool, eps)
	f3.Collect(ct.tEnd, rng)
	f2 := ldp.NewFLH(seed+2, pool, eps)
	mid := ct.mids[0]
	for i := range mid.A {
		f2.Add(f2.Perturb(pairEncode(mid.A[i], mid.B[i], d), rng))
	}
	v1 := make([]float64, d)
	v3 := make([]float64, d)
	for v := uint64(0); v < d; v++ {
		v1[v] = f1.Frequency(v)
		v3[v] = f3.Frequency(v)
	}
	var est float64
	for a := uint64(0); a < d; a++ {
		if v1[a] == 0 {
			continue
		}
		for b := uint64(0); b < d; b++ {
			est += v1[a] * f2.Frequency(pairEncode(a, b, d)) * v3[b]
		}
	}
	return est
}

// Fig15 reproduces Fig 15: RE of multiway chain joins against ε on
// Zipf(1.5). 3-way compares COMPASS, the frequency-based baselines and
// multiway LDPJoinSketch; 4-way compares COMPASS and LDPJoinSketch, as in
// the paper.
func Fig15(sc Scale) []*Table {
	ct := newChainTask(sc)
	cols := []chainColumn{
		{"Compass(3way)", func(_ float64, seed int64) float64 { return compassChain(ct, ct.mids, ct.tEnd, seed) }},
		{"k-RR(3way)", func(eps float64, seed int64) float64 { return krrChain3(ct, eps, seed) }},
		{"Apple-HCMS(3way)", func(eps float64, seed int64) float64 { return hcmsChain3(ct, eps, seed) }},
		{"FLH(3way)", func(eps float64, seed int64) float64 { return flhChain3(ct, eps, seed) }},
		{"LDPJoinSketch(3way)", func(eps float64, seed int64) float64 { return ldpChain(ct, ct.mids, ct.tEnd, eps, seed) }},
		{"Compass(4way)", func(_ float64, seed int64) float64 { return compassChain(ct, ct.mids4, ct.tEnd4, seed) }},
		{"LDPJoinSketch(4way)", func(eps float64, seed int64) float64 { return ldpChain(ct, ct.mids4, ct.tEnd4, eps, seed) }},
	}
	truths := map[string]float64{
		"Compass(3way)": ct.truth3, "k-RR(3way)": ct.truth3, "Apple-HCMS(3way)": ct.truth3,
		"FLH(3way)": ct.truth3, "LDPJoinSketch(3way)": ct.truth3,
		"Compass(4way)": ct.truth4, "LDPJoinSketch(4way)": ct.truth4,
	}

	res := make([][]float64, len(epsSweep))
	parallelFor(len(epsSweep), func(i int) {
		res[i] = make([]float64, len(cols))
		for j, c := range cols {
			var acc metrics.Accumulator
			for r := 0; r < sc.Rounds; r++ {
				est := c.run(epsSweep[i], 9000+int64(i)*101+int64(r)*7+int64(j)*131)
				acc.Add(truths[c.name], est)
			}
			res[i][j] = acc.RE()
		}
	})

	t := &Table{
		ID:      "fig15",
		Title:   fmt.Sprintf("Multiway chain joins on Zipf(1.5) (RE; domain=%d, m=%d)", ct.domain, multiwaySketchWidth),
		Columns: append([]string{"epsilon"}, colNames(cols)...),
		Notes: []string{sc.note(),
			"middle-table baselines perturb pair-encoded tuples over domain²; the chain domain is capped so that scan stays tractable"},
	}
	for i, eps := range epsSweep {
		row := []string{fmtG(eps)}
		for j := range cols {
			row = append(row, fmtG(res[i][j]))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}

// chainColumn is one data series of Fig 15.
type chainColumn struct {
	name string
	run  func(eps float64, seed int64) float64
}

func colNames(cols []chainColumn) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.name
	}
	return out
}
