package core

import (
	"math/rand"
	"sync"
	"testing"

	"ldpjoin/internal/hashing"
)

// These tests pin the kernel-backed hot paths to their executable
// references inside core itself: the kernel package proves each
// primitive bit-exact in isolation, and these prove the rewiring — the
// parallel restore, the sharded FI scan — composed them without
// changing a single output bit.

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

// TestRestoreBitExactVsReference: the parallel fused scale+radix-4
// restore the frequency estimators read must equal — cell for cell, bit
// for bit — the literal Algorithm 2 reading: scale every count by k·c_ε,
// then run the textbook radix-2 butterfly (radix2Transform, a local copy
// rather than kernel.FWHT, so the check stays independent of the kernel)
// over each row. The frequent-item proposal a plus column's advance logs
// is read off these cells, and replay must propose the same set, so
// approximate equality is not enough.
func TestRestoreBitExactVsReference(t *testing.T) {
	for _, p := range []Params{
		{K: 5, M: 64, Epsilon: 1},
		{K: 9, M: 512, Epsilon: 4},
		{K: 40, M: 256, Epsilon: 2}, // K > maxStackK
	} {
		s := filledAggregator(p, 11, 4096, 1<<14).Finalize()
		for j, row := range s.Counts() {
			ref := make([]float64, len(row))
			for x, c := range row {
				ref[x] = float64(c) * s.scale
			}
			radix2Transform(ref)
			for x := range ref {
				if got := s.Row(j)[x]; got != ref[x] {
					t.Fatalf("K=%d M=%d: cell [%d,%d] = %v, reference %v", p.K, p.M, j, x, got, ref[x])
				}
			}
		}
	}
}

// radix2Transform is the literal in-place Walsh–Hadamard butterfly,
// v ← v × H_m.
func radix2Transform(v []float64) {
	n := len(v)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := v[j], v[j+h]
				v[j], v[j+h] = x+y, x-y
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
