package sketch

import (
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/kernel"
)

// CompassMatrix is the two-dimensional fast-AGMS sketch COMPASS uses for a
// table with two join attributes (§VI, Fig 4): k replicas of an m1×m2
// counter matrix. For a tuple (a, b), replica j increments the counter at
// [hA_j(a), hB_j(b)] by ξA_j(a)·ξB_j(b). Chain queries are estimated by
// matrix-vector products along the join graph.
type CompassMatrix struct {
	famA *hashing.Family
	famB *hashing.Family
	mats [][]float64 // k matrices, each m1*m2 row-major
	m1   int
	m2   int
}

// NewCompassMatrix creates an empty 2-dim sketch. famA and famB must have
// equal K; their M values give the matrix dimensions.
func NewCompassMatrix(famA, famB *hashing.Family) *CompassMatrix {
	if famA.K() != famB.K() {
		panic("sketch: compass matrix requires equal K on both attributes")
	}
	k := famA.K()
	mats := make([][]float64, k)
	for j := range mats {
		mats[j] = make([]float64, famA.M()*famB.M())
	}
	return &CompassMatrix{famA: famA, famB: famB, mats: mats, m1: famA.M(), m2: famB.M()}
}

// Update adds one occurrence of the tuple (a, b).
func (c *CompassMatrix) Update(a, b uint64) {
	for j := range c.mats {
		ra := c.famA.Bucket(j, a)
		rb := c.famB.Bucket(j, b)
		c.mats[j][ra*c.m2+rb] += float64(c.famA.Sign(j, a) * c.famB.Sign(j, b))
	}
}

// UpdateAll adds every tuple; a and b must have equal length.
func (c *CompassMatrix) UpdateAll(a, b []uint64) {
	if len(a) != len(b) {
		panic("sketch: compass UpdateAll with mismatched columns")
	}
	for i := range a {
		c.Update(a[i], b[i])
	}
}

// K returns the number of replicas.
func (c *CompassMatrix) K() int { return len(c.mats) }

// VecMat returns v × M for the j-th matrix: out[y] = Σ_x v[x]·M[x,y].
func (c *CompassMatrix) VecMat(j int, v []float64) []float64 {
	if len(v) != c.m1 {
		panic("sketch: VecMat dimension mismatch")
	}
	out := make([]float64, c.m2)
	m := c.mats[j]
	for x := 0; x < c.m1; x++ {
		vx := v[x]
		if vx == 0 {
			continue
		}
		row := m[x*c.m2 : (x+1)*c.m2]
		for y, cell := range row {
			out[y] += vx * cell
		}
	}
	return out
}

// CompassChain estimates the size of the chain join
// T_left(A0) ⋈ T_1(A0,A1) ⋈ ... ⋈ T_n(A_{n-1},A_n) ⋈ T_right(A_n)
// from the end-table vector sketches and the middle-table matrix sketches:
// the median over the k replicas of left_j × M1_j × ... × Mn_j × right_j.
// The end sketches must share K with every matrix and the hash families
// must chain consistently (left uses the same family as each matrix's A
// side, etc.); dimension mismatches panic.
func CompassChain(left *FastAGMS, mids []*CompassMatrix, right *FastAGMS) float64 {
	k := left.K()
	if right.K() != k {
		panic("sketch: chain ends disagree on K")
	}
	for _, m := range mids {
		if m.K() != k {
			panic("sketch: chain matrix disagrees on K")
		}
	}
	ests := make([]float64, k)
	for j := 0; j < k; j++ {
		v := left.Row(j)
		for _, m := range mids {
			v = m.VecMat(j, v)
		}
		ests[j] = kernel.Dot(v, right.Row(j))
	}
	return kernel.MedianInPlace(ests)
}
