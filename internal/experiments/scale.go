package experiments

import "fmt"

// Scale controls how much of the paper's full workload an experiment
// runs: the dataset fraction (the paper's tables are 40M+ rows; tests and
// benches use scaled-down replicas with preserved skew and density, see
// dataset.Spec.ScaleDomain) and the number of testing rounds averaged per
// point.
type Scale struct {
	Name   string
	Frac   float64 // fraction of the published dataset size (and domain)
	Rounds int     // testing rounds t in the error metrics
}

// Predefined scales. The LDP-vs-baseline orderings of the paper need
// large data and large domains (its own summary: the methods "are better
// suited for large datasets"); tiny/small are for benches and CI, medium
// and large reproduce the shapes, paper runs the published sizes and is
// only reasonable from the CLI on a large machine.
var (
	ScaleTiny   = Scale{Name: "tiny", Frac: 0.0005, Rounds: 1}
	ScaleSmall  = Scale{Name: "small", Frac: 0.005, Rounds: 2}
	ScaleMedium = Scale{Name: "medium", Frac: 0.05, Rounds: 2}
	ScaleLarge  = Scale{Name: "large", Frac: 0.25, Rounds: 2}
	ScalePaper  = Scale{Name: "paper", Frac: 1.0, Rounds: 5}
)

// ScaleByName resolves a preset name.
func ScaleByName(name string) (Scale, error) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScaleMedium, ScaleLarge, ScalePaper} {
		if s.Name == name {
			return s, nil
		}
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want tiny|small|medium|large|paper)", name)
}

// note returns the standard scale annotation attached to each table.
func (s Scale) note() string {
	return fmt.Sprintf("scale=%s: datasets at %.4g× the published size (domain scaled alike), %d round(s) per point",
		s.Name, s.Frac, s.Rounds)
}
