package core

import (
	"math/rand"
	"testing"

	"ldpjoin/internal/hashing"
	"ldpjoin/internal/race"
)

// TestAddBatchDoesNotAllocate is the allocation ceiling of the two fold
// kernels, at 0: every accepted report passes through one of them, so
// one allocation per call is one per batch of ingest. Allocation counts
// do not depend on the machine, which is what lets a tier-1 test block
// on them (timings live in bench/). Measured at 0 for both when the
// ceilings moved here from the benchmark gate.
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
	if n := testing.AllocsPerRun(20, func() { _ = magg.AddBatch(tuples) }); n != 0 {
		t.Errorf("MatrixAggregator.AddBatch allocates %v times per batch, ceiling 0", n)
	}
}
