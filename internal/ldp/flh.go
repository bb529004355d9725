package ldp

import (
	"math"
	"math/rand"

	"ldpjoin/internal/hashing"
)

// FLHReport is the message an FLH client sends: the index of the public
// hash function it drew and the GRR-perturbed hashed value.
type FLHReport struct {
	Hash  uint32 // index into the public hash pool
	Value uint32 // perturbed value in [0, g)
}

// FLH is fast local hashing (Cormode, Maddock & Maple): the heuristic
// variant of optimal local hashing that restricts clients to a public pool
// of k′ hash functions mapping the domain to [0, g) with g = ⌈e^ε⌉+1, then
// applies GRR over the hashed range. Aggregation groups reports by hash
// function, so a frequency query costs O(k′) instead of O(n).
type FLH struct {
	eps     float64
	g       uint64
	p       float64 // GRR keep probability over [0, g)
	seeds   []uint64
	counts  [][]float64 // per hash function: histogram over [0, g)
	perHash []float64   // reports per hash function
	n       float64
}

// NewFLH creates an FLH aggregator with a pool of numHash public hash
// functions, derived deterministically from seed.
func NewFLH(seed int64, numHash int, eps float64) *FLH {
	ValidateEpsilon(eps)
	if numHash <= 0 {
		panic("ldp: FLH needs a positive hash pool size")
	}
	g := uint64(math.Round(math.Exp(eps))) + 1
	if g < 2 {
		g = 2
	}
	e := math.Exp(eps)
	state := uint64(seed) ^ 0xF1E2D3C4B5A69788
	seeds := make([]uint64, numHash)
	counts := make([][]float64, numHash)
	for i := range seeds {
		seeds[i] = hashing.SplitMix64(&state)
		counts[i] = make([]float64, g)
	}
	return &FLH{
		eps:     eps,
		g:       g,
		p:       e / (e + float64(g) - 1),
		seeds:   seeds,
		counts:  counts,
		perHash: make([]float64, numHash),
	}
}

// G returns the hashed range size g.
func (f *FLH) G() uint64 { return f.g }

// hash maps d into [0, g) with the i-th pool function.
func (f *FLH) hash(i int, d uint64) uint32 {
	s := f.seeds[i] ^ (d * 0x9e3779b97f4a7c15)
	return uint32(hashing.SplitMix64(&s) % f.g)
}

// Perturb runs the FLH client for true value d: draw a hash uniformly
// from the pool, hash, then GRR over [0, g).
func (f *FLH) Perturb(d uint64, rng *rand.Rand) FLHReport {
	i := rng.Intn(len(f.seeds))
	v := uint64(f.hash(i, d))
	if rng.Float64() >= f.p {
		// Uniform over the other g−1 values.
		o := uint64(rng.Int63n(int64(f.g - 1)))
		if o >= v {
			o++
		}
		v = o
	}
	return FLHReport{Hash: uint32(i), Value: uint32(v)}
}

// Add ingests one report.
func (f *FLH) Add(r FLHReport) {
	f.counts[r.Hash][r.Value]++
	f.perHash[r.Hash]++
	f.n++
}

// Collect perturbs and ingests a whole column of true values.
func (f *FLH) Collect(data []uint64, rng *rand.Rand) {
	for _, d := range data {
		f.Add(f.Perturb(d, rng))
	}
}

// Frequency returns the calibrated OLH-style estimate of f(d):
// (support(d) − n/g) / (p − 1/g), where support(d) counts reports whose
// perturbed value matches the report's hash applied to d.
func (f *FLH) Frequency(d uint64) float64 {
	var support float64
	for i := range f.seeds {
		support += f.counts[i][f.hash(i, d)]
	}
	invG := 1 / float64(f.g)
	return (support - f.n*invG) / (f.p - invG)
}

// JoinSize estimates |A ⋈ B| by accumulating frequency products over
// [0, domain).
func (f *FLH) JoinSize(other *FLH, domain uint64) float64 {
	var s float64
	for d := uint64(0); d < domain; d++ {
		s += f.Frequency(d) * other.Frequency(d)
	}
	return s
}

// ReportBits returns the private communication cost of one report in
// bits: the perturbed value over [0, g), ⌈log2 g⌉. The hash-function
// choice is data-independent and derivable from public randomness, so it
// is not counted (matching the Fig 7 accounting of the sketch methods).
func (f *FLH) ReportBits() int {
	return BitsFor(f.g)
}
