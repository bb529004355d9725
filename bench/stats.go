package main

import (
	"math"
	"slices"
)

// median returns the middle of xs (the mean of the two middles when the
// count is even), or NaN for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tail returns the highest percentile of xs, capped at the 99th, that
// still has at least ten samples beyond it — the tail figure the
// choosing-metrics guide asks for — and which percentile that was. With
// fewer than eleven samples it falls back to the maximum (pct 100).
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n < 11 {
		return s[n-1], 100
	}
	i := min(n-11, int(math.Ceil(0.99*float64(n)))-1)
	return s[i], 100 * float64(i+1) / float64(n)
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// which is what the driver computes spreads with. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
