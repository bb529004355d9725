// Package sketch implements the non-private sketches the paper compares
// against: the fast-AGMS sketch ("FAGMS" in the figures) and the COMPASS
// multiway fast-AGMS sketches used as the non-private baseline for
// multi-way joins (§VI).
//
// Both are linear: Merge adds two sketches built over disjoint streams
// and equals the sketch of the concatenated stream. Counters are
// integer-valued float64, so while products and partial sums stay below
// 2^53 they are exact and the kernel's reassociated row dot gives the
// same bits as a sequential one. Long COMPASS chains at large scale can
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
	fam   *hashing.Family
	rows  [][]float64
	count float64 // F1: number of values summarized
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
	s.count++
}

// UpdateAll adds every value in data.
func (s *FastAGMS) UpdateAll(data []uint64) {
	for _, d := range data {
		s.Update(d)
	}
}

// K returns the number of rows.
func (s *FastAGMS) K() int { return len(s.rows) }

// M returns the number of counters per row.
func (s *FastAGMS) M() int { return s.fam.M() }

// Count returns the number of values summarized (F1).
func (s *FastAGMS) Count() float64 { return s.count }

// Row returns the j-th counter row (not a copy).
func (s *FastAGMS) Row(j int) []float64 { return s.rows[j] }

// Family returns the hash family the sketch was built with.
func (s *FastAGMS) Family() *hashing.Family { return s.fam }

// Merge adds other into s. Both must share the same family.
func (s *FastAGMS) Merge(other *FastAGMS) {
	if s.fam != other.fam {
		panic("sketch: merging FastAGMS sketches with different families")
	}
	for j := range s.rows {
		for x := range s.rows[j] {
			s.rows[j][x] += other.rows[j][x]
		}
	}
	s.count += other.count
}

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

// Frequency estimates the frequency of d as the median over rows of
// M[j, h_j(d)]·ξ_j(d) (the CountSketch estimator).
func (s *FastAGMS) Frequency(d uint64) float64 {
	ests := make([]float64, len(s.rows))
	for j := range s.rows {
		ests[j] = s.rows[j][s.fam.Bucket(j, d)] * float64(s.fam.Sign(j, d))
	}
	return kernel.MedianInPlace(ests)
}
