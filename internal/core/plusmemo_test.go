package core

import (
	"math/rand"
	"sync"
	"testing"

	"ldpjoin/internal/dataset"
)

// joinEstPlusReference is JoinEst (Algorithm 5) as one function, the
// frequent mass summed inline for both sides on every call: the form
// the memoized mass must reproduce bit for bit.
func joinEstPlusReference(a, b *PlusState, fi []uint64, literalNT, meanFI bool) (lEst, hEst, highA, highB float64) {
	estA, estB := a.Sample.FrequencyMedian, b.Sample.FrequencyMedian
	if meanFI {
		estA, estB = a.Sample.Frequency, b.Sample.Frequency
	}
	popA, popB := a.Population(), b.Population()
	for _, d := range fi {
		if f := estA(d); f > 0 {
			highA += f * popA / a.Sample.N()
		}
		if f := estB(d); f > 0 {
			highB += f * popB / b.Sample.N()
		}
	}
	if highA > popA {
		highA = popA
	}
	if highB > popB {
		highB = popB
	}
	ntLA, ntLB := highA, highB
	ntHA, ntHB := popA-highA, popB-highB
	if !literalNT {
		ntLA *= a.Low.N() / popA
		ntLB *= b.Low.N() / popB
		ntHA *= a.High.N() / popA
		ntHB *= b.High.N() / popB
	}
	m := float64(a.Sample.Params().M)
	lEst = a.Low.JoinSizeShifted(b.Low, ntLA/m, ntLB/m)
	hEst = a.High.JoinSizeShifted(b.High, ntHA/m, ntHB/m)
	lEst *= popA * popB / (a.Low.N() * b.Low.N())
	hEst *= popA * popB / (a.High.N() * b.High.N())
	return lEst, hEst, highA, highB
}

// plusColumns builds n finalized plus columns the way a server does:
// shared phase-1 and phase-2 families, one frozen FI (the head of the
// Zipf domain), each column its own Zipf-1.1 values.
func plusColumns(n int, p Params) []*PlusState {
	const users, domain, seed = 6000, 4096, 5
	fi := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	fiSet := NewFISet(fi)
	famS, famG := p.NewFamily(PlusSampleSeed(seed)), p.NewFamily(PlusGroupSeed(seed))
	cols := make([]*PlusState, n)
	for i := range cols {
		rng := rand.New(rand.NewSource(int64(40 + i)))
		sample, low, high := splitUsers(dataset.Zipf(int64(20+i), users, domain, 1.1), 0.2, rng)
		s, l, h := NewAggregator(p, famS), NewAggregator(p, famG), NewAggregator(p, famG)
		s.CollectColumn(sample, rng)
		l.CollectColumnFAP(low, ModeLow, fiSet, rng)
		h.CollectColumnFAP(high, ModeHigh, fiSet, rng)
		cols[i] = &PlusState{Sample: s.Finalize(), Low: l.Finalize(), High: h.Finalize(), Domain: domain, Theta: 0.05, FI: fi}
	}
	return cols
}

// TestPlusJoinMemoMatchesReference: a served plus join — the first of a
// column, which computes its frequent mass, and every later one, which
// reads it — equals the inline reference bit for bit.
func TestPlusJoinMemoMatchesReference(t *testing.T) {
	cols := plusColumns(4, Params{K: 18, M: 256, Epsilon: 4})
	for round := 0; round < 2; round++ {
		for i, a := range cols {
			for j, b := range cols {
				if i == j {
					continue
				}
				got, err := EstimateJoinPlusColumns(a, b)
				if err != nil {
					t.Fatal(err)
				}
				lEst, hEst, highA, highB := joinEstPlusReference(a, b, a.FI, false, false)
				want := PlusJoinEstimate{Estimate: lEst + hEst, LowEstimate: lEst, HighEstimate: hEst, HighFreqA: highA, HighFreqB: highB}
				if got != want {
					t.Fatalf("round %d, %d ⋈ %d: %+v, reference %+v", round, i, j, got, want)
				}
			}
		}
		for i, c := range cols {
			if c.mass.Load() == nil {
				t.Fatalf("round %d: column %d was joined but holds no memoized mass", round, i)
			}
		}
	}
}

// TestEstimateJoinPlusMatchesReference: the simulation computes its
// masses afresh, under either estimator, and its estimates equal the
// inline reference's over the same collected states, for every
// combination of the two ablation switches.
func TestEstimateJoinPlusMatchesReference(t *testing.T) {
	const n, domain = 20000, 1000
	da := dataset.Zipf(1, n, domain, 1.3)
	db := dataset.Zipf(2, n, domain, 1.3)
	for _, meanFI := range []bool{false, true} {
		for _, literalNT := range []bool{false, true} {
			opt := plusOptions(3)
			opt.MeanFI, opt.LiteralNTSubtraction = meanFI, literalNT
			a, b, _ := collectPlus(da, db, domain, opt)
			lEst, hEst, highA, highB := joinEstPlusReference(a, b, a.FI, literalNT, meanFI)
			res := EstimateJoinPlus(da, db, domain, opt)
			if res.Estimate != lEst+hEst || res.LowEstimate != lEst || res.HighEstimate != hEst ||
				res.HighFreqA != highA || res.HighFreqB != highB {
				t.Errorf("MeanFI=%v LiteralNT=%v: (%v, %v, %v, %v, %v), reference (%v, %v, %v, %v, %v)",
					meanFI, literalNT, res.Estimate, res.LowEstimate, res.HighEstimate, res.HighFreqA, res.HighFreqB,
					lEst+hEst, lEst, hEst, highA, highB)
			}
		}
	}
}

// TestConcurrentPlusJoins joins one cold column against several others
// from concurrent goroutines — all racing to memoize its mass and
// restore its rows — and checks each against the reference; run under
// -race it is the memo's race canary.
func TestConcurrentPlusJoins(t *testing.T) {
	p := Params{K: 18, M: 256, Epsilon: 4}
	cols, ref := plusColumns(5, p), plusColumns(5, p)
	want := make([]float64, len(cols))
	for i := 1; i < len(ref); i++ {
		l, h, _, _ := joinEstPlusReference(ref[0], ref[i], ref[0].FI, false, false)
		want[i] = l + h
	}
	var wg sync.WaitGroup
	got := make([][4]float64, len(cols))
	for i := 1; i < len(cols); i++ {
		for g := range got[i] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				est, err := EstimateJoinPlusColumns(cols[0], cols[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[i][g] = est.Estimate
			}()
		}
	}
	wg.Wait()
	for i := 1; i < len(cols); i++ {
		for g, est := range got[i] {
			if est != want[i] {
				t.Errorf("0 ⋈ %d, goroutine %d: %v, reference %v", i, g, est, want[i])
			}
		}
	}
}
