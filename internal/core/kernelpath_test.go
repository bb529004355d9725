package core

import (
	"math/rand"
	"sync"
	"testing"

	"ldpjoin/internal/hadamard"
	"ldpjoin/internal/hashing"
)

// These tests pin the kernel-backed hot paths to their executable
// references inside core itself: the kernel package proves each
// primitive bit-exact in isolation, and these prove the rewiring —
// parallel Finalize, the sharded FI scan, the shifted plus-join dot —
// composed them without changing a single output bit.

// filledAggregator returns an aggregator with n perturbed reports over
// [0, domain) folded in.
func filledAggregator(p Params, seed int64, n int, domain uint64) *Aggregator {
	fam := hashing.NewFamily(seed, p.K, p.M)
	agg := NewAggregator(p, fam)
	rng := rand.New(rand.NewSource(seed + 1))
	data := make([]uint64, n)
	for i := range data {
		data[i] = uint64(rng.Int63n(int64(domain)))
	}
	agg.CollectColumn(data, rng)
	return agg
}

// TestFinalizeBitExactVsReference: the parallel fused scale+radix-4
// restore must equal — cell for cell, bit for bit — the literal
// Algorithm 2 reading: scale every cell by k·c_ε, then
// hadamard.Transform each row. Finalized state is persisted and
// federated byte-identically, so approximate equality is not enough.
func TestFinalizeBitExactVsReference(t *testing.T) {
	for _, p := range []Params{
		{K: 5, M: 64, Epsilon: 1},
		{K: 9, M: 512, Epsilon: 4},
		{K: 18, M: 256, Epsilon: 2}, // K > maxStackK
	} {
		agg := filledAggregator(p, 11, 4096, 1<<14)
		ref := make([][]float64, p.K)
		for j, row := range agg.rows {
			ref[j] = append([]float64(nil), row...)
			for x := range ref[j] {
				ref[j][x] *= agg.scale
			}
			hadamard.Transform(ref[j])
		}
		s := agg.Finalize()
		for j := range ref {
			for x := range ref[j] {
				if s.rows[j][x] != ref[j][x] {
					t.Fatalf("K=%d M=%d: cell [%d,%d] = %v, reference %v", p.K, p.M, j, x, s.rows[j][x], ref[j][x])
				}
			}
		}
	}
}

// TestFrequentItemsShardedMatchesSerial: the sharded scan must return
// exactly the serial scan's list — same values, same (ascending)
// order — for both estimators. The WAL-replayed advance proposal
// replays FI output deterministically, so this is a correctness
// invariant, not a nicety.
func TestFrequentItemsShardedMatchesSerial(t *testing.T) {
	p := Params{K: 9, M: 512, Epsilon: 4}
	const domain = 8 * frequentItemsSpan // enough to engage sharding
	s := filledAggregator(p, 21, 1<<14, domain).Finalize()
	for _, useMean := range []bool{false, true} {
		threshold := 8.0
		serial := s.frequentItemsRange(0, domain, threshold, useMean)
		sharded := s.FrequentItems(domain, threshold, useMean)
		if len(serial) == 0 {
			t.Fatalf("useMean=%v: serial scan found nothing; threshold too high for the fixture", useMean)
		}
		if len(sharded) != len(serial) {
			t.Fatalf("useMean=%v: sharded found %d items, serial %d", useMean, len(sharded), len(serial))
		}
		for i := range serial {
			if sharded[i] != serial[i] {
				t.Fatalf("useMean=%v: item %d: sharded %d, serial %d", useMean, i, sharded[i], serial[i])
			}
		}
	}
}

// TestJoinSizeShiftedMatchesMinusConstant: the serving path
// (JoinSizeShifted, offsets folded into the dot loop) must equal the
// reference path (MinusConstant copies, then JoinSize) exactly — the
// subtract-then-multiply per cell and the accumulation order are the
// same ops in the same order on both routes.
func TestJoinSizeShiftedMatchesMinusConstant(t *testing.T) {
	p := Params{K: 9, M: 256, Epsilon: 4}
	fam := hashing.NewFamily(31, p.K, p.M)
	a := NewAggregator(p, fam)
	b := NewAggregator(p, fam)
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 4096; i++ {
		a.Add(Perturb(uint64(rng.Intn(1000)), p, fam, rng))
		b.Add(Perturb(uint64(rng.Intn(1000)), p, fam, rng))
	}
	sa, sb := a.Finalize(), b.Finalize()
	for _, c := range [][2]float64{{0, 0}, {1.5, 0}, {0, 2.25}, {3.75, 1.5}, {-2, 7}} {
		got := sa.JoinSizeShifted(sb, c[0], c[1])
		want := sa.MinusConstant(c[0]).JoinSize(sb.MinusConstant(c[1]))
		if got != want {
			t.Fatalf("ca=%v cb=%v: JoinSizeShifted %v, MinusConstant reference %v", c[0], c[1], got, want)
		}
	}
}

// TestParallelQueryRace hammers the read paths that now run worker
// pools or shared kernels — concurrent Finalize calls on independent
// aggregators, then concurrent FrequentItems/JoinSize/FrequencyMedian
// on one shared sketch — as a canary for the race detector.
func TestParallelQueryRace(t *testing.T) {
	p := Params{K: 9, M: 512, Epsilon: 4}
	fam := hashing.NewFamily(99, p.K, p.M)
	var wg sync.WaitGroup
	sketches := make([]*Sketch, 4)
	for i := range sketches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agg := NewAggregator(p, fam)
			rng := rand.New(rand.NewSource(int64(100 + i)))
			data := make([]uint64, 2048)
			for x := range data {
				data[x] = uint64(rng.Int63n(1 << 13))
			}
			agg.CollectColumn(data, rng)
			sketches[i] = agg.Finalize()
		}(i)
	}
	wg.Wait()

	s, o := sketches[0], sketches[1]
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_ = s.FrequentItems(4*frequentItemsSpan, 8, g%2 == 0)
			_ = s.JoinSize(o)
			_ = s.JoinSizeShifted(o, 1, 2)
			_ = s.FrequencyMedian(uint64(g))
			_ = s.SelfJoinSize()
		}(g)
	}
	wg.Wait()
}
