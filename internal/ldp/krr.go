package ldp

import (
	"math"
	"math/bits"
	"math/rand"
)

// KRR is k-ary randomized response (generalized randomized response) over
// the domain [0, Domain): the client keeps its true value with probability
// e^ε/(e^ε+|D|−1) and otherwise reports a uniformly random other value.
// The server keeps a full frequency vector — which is exactly the
// large-domain cost the paper's sketches avoid.
type KRR struct {
	domain uint64
	eps    float64
	p      float64 // probability of keeping the true value
	q      float64 // probability of any specific other value
	counts []float64
	n      float64
}

// NewKRR creates a k-RR aggregator for the given domain and budget.
func NewKRR(domain uint64, eps float64) *KRR {
	ValidateEpsilon(eps)
	if domain < 2 {
		panic("ldp: k-RR needs a domain of at least 2")
	}
	e := math.Exp(eps)
	den := e + float64(domain) - 1
	return &KRR{
		domain: domain,
		eps:    eps,
		p:      e / den,
		q:      1 / den,
		counts: make([]float64, domain),
	}
}

// Perturb runs the client side: it returns the randomized report for true
// value d (which must lie in the domain).
func (k *KRR) Perturb(d uint64, rng *rand.Rand) uint64 {
	if d >= k.domain {
		panic("ldp: k-RR value outside domain")
	}
	if rng.Float64() < k.p {
		return d
	}
	// Uniform over the other domain−1 values.
	v := uint64(rng.Int63n(int64(k.domain - 1)))
	if v >= d {
		v++
	}
	return v
}

// Add ingests one perturbed report on the server side.
func (k *KRR) Add(report uint64) {
	k.counts[report]++
	k.n++
}

// Collect perturbs and ingests a whole column of true values, the
// simulation shortcut used by experiments.
func (k *KRR) Collect(data []uint64, rng *rand.Rand) {
	for _, d := range data {
		k.Add(k.Perturb(d, rng))
	}
}

// Frequency returns the calibrated (unbiased) frequency estimate of d.
func (k *KRR) Frequency(d uint64) float64 {
	return (k.counts[d] - k.n*k.q) / (k.p - k.q)
}

// JoinSize estimates |A ⋈ B| by accumulating the product of the two
// calibrated frequency vectors over the whole domain.
func (k *KRR) JoinSize(other *KRR) float64 {
	if k.domain != other.domain {
		panic("ldp: k-RR join across different domains")
	}
	var s float64
	for d := uint64(0); d < k.domain; d++ {
		s += k.Frequency(d) * other.Frequency(d)
	}
	return s
}

// ReportBits returns the communication cost of one report in bits:
// the full encoded value, ⌈log2 |D|⌉.
func (k *KRR) ReportBits() int {
	return BitsFor(k.domain)
}

// BitsFor returns the bits needed to encode one of n values, ⌈log2 n⌉,
// and at least 1. n = 0 reads as 2^64 values (64 bits).
func BitsFor(n uint64) int {
	return max(1, bits.Len64(n-1))
}
