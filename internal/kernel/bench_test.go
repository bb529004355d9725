package kernel

import (
	"math/rand"
	"testing"
)

// BenchmarkFWHT measures one row restore at the default deployment
// width (m = 1024) — the unit Algorithm 2 finalization repeats K times
// per column. The naive sub-benchmark is the pre-kernel butterfly, kept
// so the BENCH trajectory records the spread, not just the winner.
func BenchmarkFWHT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := randVec(rng, 1024)
	b.Run("radix4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FWHT(v)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			radix2(v)
		}
	})
	b.Run("scaled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FWHTScaled(v, 1.0000001)
		}
	})
}

// BenchmarkDot measures one row inner product at m = 1024 — the unit a
// join estimate repeats K times. naive is the sequential reference loop.
func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y := randVec(rng, 1024), randVec(rng, 1024)
	var sink float64
	b.Run("unrolled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += Dot(x, y)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += naiveDot(x, y)
		}
	})
	b.Run("shifted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += DotShifted(x, y, 0.25, 0.5)
		}
	})
	_ = sink
}
