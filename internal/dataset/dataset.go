// Package dataset generates the workloads of the paper's evaluation
// (Table II): synthetic Zipf and Gaussian join columns, and deterministic
// synthetic simulacra of the four real-world datasets (MovieLens, TPC-DS,
// Twitter and Facebook ego-networks).
//
// Real data is unavailable offline, so each simulacrum reproduces the
// published domain size, (scaled) row count, and a rank-frequency skew
// chosen to match what is publicly known about each dataset (each
// entry's Alpha in specs below). The estimators under test only observe
// the frequency profile of the join attribute, so this preserves the
// behaviour the experiments measure.
//
// Every generator is a pure function of (seed, scale): repeated calls are
// bit-identical, and experiment pairs (attribute A, attribute B) are two
// independent draws from the same distribution, the standard setting in
// the sketching literature the paper follows.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind selects the generator family for a Spec.
type Kind int

const (
	// KindZipf draws ranks from a Zipf(alpha) profile over the domain.
	KindZipf Kind = iota
	// KindGaussian draws rounded Normal(domain/2, domain/8) values.
	KindGaussian
)

// Spec describes one evaluation dataset: its published identity plus the
// generator parameters used to synthesize it.
type Spec struct {
	Name     string
	Domain   uint64 // published attribute domain size
	FullSize int    // published number of rows
	Kind     Kind
	Alpha    float64 // Zipf skew (ignored for Gaussian)
	// ScaleDomain indicates the domain should shrink with the row count so
	// the mean frequency n/D — which governs collision behaviour relative
	// to sketch width — is preserved at reduced scale.
	ScaleDomain bool
}

// specs lists Table II. The Zipf family appears with the skews used across
// the figures; its published "domain" is the sampling universe (the paper
// reports realized distinct counts of 4,377–2,816,390 from a 40M-row draw,
// consistent with a universe of about 3M).
var specs = []Spec{
	{Name: "zipf1.1", Domain: 3_000_000, FullSize: 40_000_000, Kind: KindZipf, Alpha: 1.1, ScaleDomain: true},
	{Name: "zipf1.3", Domain: 3_000_000, FullSize: 40_000_000, Kind: KindZipf, Alpha: 1.3, ScaleDomain: true},
	{Name: "zipf1.5", Domain: 3_000_000, FullSize: 40_000_000, Kind: KindZipf, Alpha: 1.5, ScaleDomain: true},
	{Name: "zipf1.7", Domain: 3_000_000, FullSize: 40_000_000, Kind: KindZipf, Alpha: 1.7, ScaleDomain: true},
	{Name: "zipf1.9", Domain: 3_000_000, FullSize: 40_000_000, Kind: KindZipf, Alpha: 1.9, ScaleDomain: true},
	{Name: "zipf2.0", Domain: 3_000_000, FullSize: 40_000_000, Kind: KindZipf, Alpha: 2.0, ScaleDomain: true},
	{Name: "gaussian", Domain: 75_949, FullSize: 40_000_000, Kind: KindGaussian, ScaleDomain: true},
	{Name: "movielens", Domain: 83_239, FullSize: 67_664_324, Kind: KindZipf, Alpha: 0.8, ScaleDomain: true},
	{Name: "tpcds", Domain: 18_000, FullSize: 5_760_808, Kind: KindZipf, Alpha: 0.3, ScaleDomain: true},
	{Name: "twitter", Domain: 77_072, FullSize: 4_841_532, Kind: KindZipf, Alpha: 1.2, ScaleDomain: true},
	{Name: "facebook", Domain: 4_039, FullSize: 352_936, Kind: KindZipf, Alpha: 1.0, ScaleDomain: false},
}

// Specs returns the Table II inventory, in paper order.
func Specs() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// ZipfSpec returns an ad-hoc Zipf spec with the given skew, for the
// parameter sweeps of Figs 8–12.
func ZipfSpec(alpha float64) Spec {
	return Spec{
		Name:        fmt.Sprintf("zipf%.1f", alpha),
		Domain:      3_000_000,
		FullSize:    40_000_000,
		Kind:        KindZipf,
		Alpha:       alpha,
		ScaleDomain: true,
	}
}

// Size returns the row count at the given scale (floored at 1000 rows).
func (s Spec) Size(scale float64) int {
	n := int(math.Round(float64(s.FullSize) * scale))
	if n < 1000 {
		n = 1000
	}
	if n > s.FullSize {
		n = s.FullSize
	}
	return n
}

// DomainAt returns the domain at the given scale (floored at 256 values),
// honouring ScaleDomain.
func (s Spec) DomainAt(scale float64) uint64 {
	if !s.ScaleDomain || scale >= 1 {
		return s.Domain
	}
	d := uint64(math.Round(float64(s.Domain) * scale))
	if d < 256 {
		d = 256
	}
	if d > s.Domain {
		d = s.Domain
	}
	return d
}

// Generate produces one column of join-attribute values at the given
// scale. Values lie in [0, DomainAt(scale)).
func (s Spec) Generate(seed int64, scale float64) []uint64 {
	n := s.Size(scale)
	domain := s.DomainAt(scale)
	switch s.Kind {
	case KindZipf:
		return Zipf(seed, n, domain, s.Alpha)
	case KindGaussian:
		return Gaussian(seed, n, domain)
	default:
		panic("dataset: unknown kind")
	}
}

// Pair produces the two join columns (attribute A of T1, attribute B of
// T2) as independent draws from the same distribution.
func (s Spec) Pair(seed int64, scale float64) (a, b []uint64) {
	return s.Generate(seed, scale), s.Generate(seed^0x5bf0_3635, scale)
}

// Zipf draws n values from a Zipf(alpha) rank-frequency profile over
// [0, domain): value v has probability proportional to 1/(v+1)^alpha.
// alpha = 0 degenerates to uniform.
func Zipf(seed int64, n int, domain uint64, alpha float64) []uint64 {
	if domain == 0 {
		panic("dataset: zipf domain must be positive")
	}
	weights := make([]float64, domain)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -alpha)
	}
	alias := NewAlias(weights)
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(alias.Sample(rng))
	}
	return out
}

// Gaussian draws n values from a discretized Normal(domain/2, domain/8)
// clipped to [0, domain).
func Gaussian(seed int64, n int, domain uint64) []uint64 {
	if domain == 0 {
		panic("dataset: gaussian domain must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	mu := float64(domain) / 2
	sigma := float64(domain) / 8
	out := make([]uint64, n)
	for i := range out {
		for {
			v := math.Round(rng.NormFloat64()*sigma + mu)
			if v >= 0 && v < float64(domain) {
				out[i] = uint64(v)
				break
			}
		}
	}
	return out
}

// Distinct returns the number of distinct values in data.
func Distinct(data []uint64) int {
	seen := make(map[uint64]struct{}, len(data)/4+1)
	for _, d := range data {
		seen[d] = struct{}{}
	}
	return len(seen)
}

// TopShare returns the fraction of rows held by the q most frequent
// values — a skew summary used by tests and the Table II report.
func TopShare(data []uint64, q int) float64 {
	if len(data) == 0 {
		return 0
	}
	freq := make(map[uint64]int)
	for _, d := range data {
		freq[d]++
	}
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if q > len(counts) {
		q = len(counts)
	}
	top := 0
	for _, c := range counts[:q] {
		top += c
	}
	return float64(top) / float64(len(data))
}
