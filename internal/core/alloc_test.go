package core

import (
	"math/rand"
	"testing"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/race"
)

// TestAddBatchDoesNotAllocate is the allocation ceiling of the two fold
// kernels: every accepted report passes through one of them, so one
// allocation per call is one per batch of ingest. Allocation counts do
// not depend on the machine, which is what lets a tier-1 test block on
// them (timings live in bench/). The join fold writes into fixed rows
// and stays at 0. The matrix fold appends to its replicas' tails and
// merges a tail into its run when it outgrows it, so it allocates as
// those grow, amortised: measured at 8 per 4,096-report batch here
// (K = 18, 64×64, 21 batches), which is the ceiling.
func TestAddBatchDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector say nothing about the code")
	}
	p := Params{K: 18, M: 1024, Epsilon: 4}
	rng := rand.New(rand.NewSource(7))
	reports := make([]Report, 4096)
	for i := range reports {
		reports[i] = Report{Y: int8(2*rng.Intn(2) - 1), Row: uint32(rng.Intn(p.K)), Col: uint32(rng.Intn(p.M))}
	}
	agg := NewAggregator(p, hashing.NewFamily(42, p.K, p.M))
	if n := testing.AllocsPerRun(20, func() { _ = agg.AddBatch(reports) }); n != 0 {
		t.Errorf("Aggregator.AddBatch allocates %v times per batch, ceiling 0", n)
	}

	mp := MatrixParams{K: 18, M1: 64, M2: 64, Epsilon: 4}
	tuples := make([]MatrixReport, 4096)
	for i := range tuples {
		tuples[i] = MatrixReport{Y: int8(2*rng.Intn(2) - 1), Row: uint32(rng.Intn(mp.K)), L1: uint32(rng.Intn(mp.M1)), L2: uint32(rng.Intn(mp.M2))}
	}
	magg := NewMatrixAggregator(mp, hashing.NewFamily(42, mp.K, mp.M1), hashing.NewFamily(43, mp.K, mp.M2))
	if n := testing.AllocsPerRun(20, func() { _ = magg.AddBatch(tuples) }); n > 8 {
		t.Errorf("MatrixAggregator.AddBatch allocates %v times per batch, ceiling 8", n)
	}
}

// TestEstimatorAllocations: at the daemon's K = 18 the served pair and
// frequency estimators, and the mean-of-rows ablation, keep their row
// estimates on the stack, and a warm plus join — rows restored, both
// masses memoized — is two shifted dot passes with nothing allocated.
func TestEstimatorAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector say nothing about the code")
	}
	p := Params{K: 18, M: 1024, Epsilon: 4}
	fam, rng := p.NewFamily(1), rand.New(rand.NewSource(2))
	a, b := filledEnd(p, fam, 20000, 4096, rng), filledEnd(p, fam, 20000, 4096, rng)
	plus := plusColumns(2, p)
	if _, err := EstimateJoinPlusColumns(plus[0], plus[1]); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"JoinSize", func() { a.JoinSize(b) }},
		{"JoinSizeShifted", func() { a.JoinSizeShifted(b, 1.5, 2.5) }},
		{"JoinSizeMean", func() { a.JoinSizeMean(b) }},
		{"SelfJoinSize", func() { a.SelfJoinSize() }},
		{"Frequency", func() { a.Frequency(3) }},
		{"FrequencyMedian", func() { a.FrequencyMedian(3) }},
		{"FrequencyMeanMedian", func() { a.FrequencyMeanMedian(3) }},
		{"EstimateJoinPlusColumns", func() { _, _ = EstimateJoinPlusColumns(plus[0], plus[1]) }},
	} {
		if n := testing.AllocsPerRun(20, tc.f); n != 0 {
			t.Errorf("K=%d: %s allocates %v times per call, ceiling 0", p.K, tc.name, n)
		}
	}
}

// TestChainEstimateAllocations: a 3-way chain estimate allocates
// nothing — one fused pass over the middle's run per replica, reading
// both ends' counts as they are — and a longer chain its one O(M)
// product scratch; past maxStackK the replica estimates add one more.
// Neither grows with the middles' non-zero counts. A restored end costs
// its derive once (not counted here), and nothing on every chain after.
func TestChainEstimateAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector say nothing about the code")
	}
	for _, k := range []int{9, 18, 40} {
		ep := Params{K: k, M: 256, Epsilon: 4}
		mp := MatrixParams{K: k, M1: 256, M2: 256, Epsilon: 4}
		famA, famB, famC := ep.NewFamily(1), ep.NewFamily(2), ep.NewFamily(3)
		rng := rand.New(rand.NewSource(3))
		left := filledEnd(ep, famA, 1000, 500, rng)
		right := filledEnd(ep, famB, 1000, 500, rng)
		far := filledEnd(ep, famC, 1000, 500, rng)
		restored := filledEnd(ep, famA, 1000, 500, rng)
		restored.FrequencyMedian(0) // restores it, and it alone
		var ests float64
		if k > maxStackK {
			ests = 1
		}
		for _, n := range []int{100, 100_000} {
			mid := filledMatrix(mp, famA, famB, n, 500, rng)
			next := filledMatrix(mp, famB, famC, n, 500, rng)
			ChainEstimate(restored, []*MatrixSketch{mid}, right) // derives its counts, once
			for _, tc := range []struct {
				name    string
				ceiling float64
				f       func()
			}{
				{"one middle", ests, func() { ChainEstimate(left, []*MatrixSketch{mid}, right) }},
				{"two middles", 1 + ests, func() { ChainEstimate(left, []*MatrixSketch{mid, next}, far) }},
				{"restored end, warm", ests, func() { ChainEstimate(restored, []*MatrixSketch{mid}, right) }},
			} {
				if got := testing.AllocsPerRun(10, tc.f); got != tc.ceiling {
					t.Errorf("K=%d, %d tuples, %s: ChainEstimate allocates %v times, want %v", k, n, tc.name, got, tc.ceiling)
				}
			}
		}
	}
}
