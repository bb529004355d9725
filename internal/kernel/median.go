package kernel

import "math"

// MedianInPlace sorts v in place and returns its median, averaging the
// middle pair for even lengths. It sorts rather than copies, so callers
// pass a scratch buffer they own. Insertion sort: v is a row-estimate
// vector of length K (single to low double digits), where insertion
// sort beats the sort package's interface dispatch and never
// allocates. For finite inputs the sorted order — and therefore the
// median — matches sort.Float64s exactly.
func MedianInPlace(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// Mean returns the arithmetic mean of v.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
