// Package sketch implements the non-private sketches the paper compares
// against: the fast-AGMS sketch ("FAGMS" in the figures) and the COMPASS
// multiway fast-AGMS sketches used as the non-private baseline for
// multi-way joins (§VI).
//
// Counters are integer-valued float64, so while products and partial
// sums stay below 2^53 they are exact and the kernel's reassociated row
// dot gives the same bits as a sequential one. Long COMPASS chains at large scale can
// pass 2^53 and differ in the last ulps; they are estimates, not state.
package sketch

import (
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
)

// FastAGMS is the fast-AGMS sketch of Cormode & Garofalakis: an array of
// k×m counters where row j updates the single counter h_j(d) by ξ_j(d).
// Two sketches built from the same hashing.Family estimate the join size
// of their streams via InnerProduct.
type FastAGMS struct {
	fam  *hashing.Family
	rows [][]float64
}

// NewFastAGMS creates an empty sketch over the given family.
func NewFastAGMS(fam *hashing.Family) *FastAGMS {
	rows := make([][]float64, fam.K())
	for j := range rows {
		rows[j] = make([]float64, fam.M())
	}
	return &FastAGMS{fam: fam, rows: rows}
}

// Update adds one occurrence of d.
func (s *FastAGMS) Update(d uint64) {
	for j, row := range s.rows {
		row[s.fam.Bucket(j, d)] += float64(s.fam.Sign(j, d))
	}
}

// UpdateAll adds every value in data.
func (s *FastAGMS) UpdateAll(data []uint64) {
	for _, d := range data {
		s.Update(d)
	}
}

// K returns the number of rows.
func (s *FastAGMS) K() int { return len(s.rows) }

// Row returns the j-th counter row (not a copy).
func (s *FastAGMS) Row(j int) []float64 { return s.rows[j] }

// InnerProduct estimates the join size |A ⋈ B| between the streams behind
// s and other: the median over rows of the row inner products (Eq 1).
func (s *FastAGMS) InnerProduct(other *FastAGMS) float64 {
	if s.fam != other.fam {
		panic("sketch: inner product requires sketches over the same family")
	}
	ests := make([]float64, len(s.rows))
	for j := range s.rows {
		ests[j] = kernel.Dot(s.rows[j], other.rows[j])
	}
	return kernel.MedianInPlace(ests)
}
