package ldpjoin

import (
	"fmt"
	"math/rand"

	"ldpjoin/internal/core"
	"ldpjoin/internal/hashing"
	"ldpjoin/internal/protocol"
)

// Report is the ε-LDP message a client transmits: one perturbed bit and
// the sampled sketch coordinates (Theorem 1 of the paper proves the
// triple is safe to release).
type Report = core.Report

// MatrixReport is the client message for a two-attribute (middle) table
// in a chain join (§VI of the paper).
type MatrixReport = core.MatrixReport

// PlusResult carries the LDPJoinSketch+ estimate and its diagnostics.
type PlusResult = core.PlusResult

// Config is the protocol configuration shared by every participant of a
// join: sketch depth K, sketch width M (a power of two), the per-client
// privacy budget Epsilon, and the Seed from which the public hash
// functions are derived. Both join endpoints must use identical configs.
type Config struct {
	K       int
	M       int
	Epsilon float64
	Seed    int64
}

// DefaultConfig returns the paper's default parameters: k=18, m=1024,
// ε=4.
func DefaultConfig() Config {
	return Config{K: 18, M: 1024, Epsilon: 4, Seed: 1}
}

func (c Config) params() core.Params {
	return core.Params{K: c.K, M: c.M, Epsilon: c.Epsilon}
}

// Validate reports whether the configuration can run the protocol.
func (c Config) Validate() error { return c.params().Validate() }

// Protocol binds a configuration to its derived public hash functions.
// It is the factory for clients and aggregators; two sketches can be
// combined exactly when they come from protocols with equal configs.
type Protocol struct {
	cfg    Config
	params core.Params
	fam    *hashing.Family
}

// NewProtocol validates the configuration and derives the hash family.
func NewProtocol(cfg Config) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	p := cfg.params()
	return &Protocol{cfg: cfg, params: p, fam: p.NewFamily(cfg.Seed)}, nil
}

// Config returns the protocol's configuration.
func (p *Protocol) Config() Config { return p.cfg }

// ReportBits returns the private communication cost per client in bits
// under the public-coin index model (see the paper's Fig 7 accounting).
func (p *Protocol) ReportBits() int { return p.params.ReportBits() }

// SketchBytes returns the server-side memory of one sketch.
func (p *Protocol) SketchBytes() int { return p.params.SketchBytes() }

// Client perturbs private values on the data owner's side. A Client is
// cheap; give each simulated user its own, or reuse one per gateway.
type Client struct {
	proto *Protocol
	rng   *rand.Rand
}

// NewClient creates a client whose randomness derives from seed.
func (p *Protocol) NewClient(seed int64) *Client {
	return &Client{proto: p, rng: rand.New(rand.NewSource(seed))}
}

// Report randomizes one private value (Algorithm 1). The output is
// ε-LDP: it may be logged, transmitted, or retained indefinitely.
func (c *Client) Report(value uint64) Report {
	return core.Perturb(value, c.proto.params, c.proto.fam, c.rng)
}

// Aggregator is the untrusted server side: it consumes perturbed reports
// and produces a Sketch. It never sees a true value.
type Aggregator struct {
	proto *Protocol
	agg   *core.Aggregator
}

// NewAggregator creates an empty aggregator for this protocol.
func (p *Protocol) NewAggregator() *Aggregator {
	return &Aggregator{proto: p, agg: core.NewAggregator(p.params, p.fam)}
}

// Add ingests one report received from a client.
func (a *Aggregator) Add(r Report) { a.agg.Add(r) }

// AddColumn simulates a whole population locally: every value is
// client-perturbed (with randomness derived from seed) and ingested. Use
// it for experiments and tests; production deployments feed Add from the
// wire instead.
func (a *Aggregator) AddColumn(values []uint64, seed int64) {
	a.agg.CollectColumn(values, rand.New(rand.NewSource(seed)))
}

// N returns the number of reports ingested.
func (a *Aggregator) N() float64 { return a.agg.N() }

// Sketch finalizes the aggregation. The aggregator is consumed.
func (a *Aggregator) Sketch() *Sketch {
	return &Sketch{proto: a.proto, sk: a.agg.Finalize()}
}

// Merge folds other — built under the same protocol, typically imported
// from another collector's snapshot — into a. Unfinalized cells are
// exact integer sums, so the merge is exact: finalizing the merged
// aggregator yields byte-identical results to one aggregator having
// ingested both report streams. Neither aggregator may be finalized.
func (a *Aggregator) Merge(other *Aggregator) error {
	if a.agg.Done() || other.agg.Done() {
		return fmt.Errorf("ldpjoin: cannot merge finalized aggregators")
	}
	if !a.agg.Compatible(other.agg) {
		return fmt.Errorf("ldpjoin: aggregators are not combinable (params %+v/seed %d vs params %+v/seed %d)",
			a.agg.Params(), a.agg.Family().Seed(), other.agg.Params(), other.agg.Family().Seed())
	}
	a.agg.Merge(other.agg)
	return nil
}

// Snapshot exports the aggregator's unfinalized (mergeable) state as a
// SNAP snapshot: the cross-node wire form of federation. The snapshot
// embeds the configuration fingerprint (k, m, ε, hash seed) and a CRC,
// and imports only into a protocol with the identical configuration.
// The aggregator remains usable afterwards.
func (a *Aggregator) Snapshot() ([]byte, error) {
	if a.agg.Done() {
		return nil, fmt.Errorf("ldpjoin: cannot snapshot a finalized aggregator")
	}
	return protocol.EncodeSnapshot(protocol.SnapshotOfAggregator(a.agg))
}

// buildShards fixes the simulation shard count of the facade builders.
// Shards — not workers — determine the per-chunk client seeds, so
// pinning them makes BuildSketch and the chain builders deterministic
// functions of (data, seed) on every machine while still parallelizing
// across up to 16 cores.
const buildShards = 16

// BuildSketch runs the whole pipeline for a column in parallel (up to
// buildShards cores): core.Collect cuts the population into chunks,
// simulates the clients on kernel.RowApply, and merges the partial
// aggregations. The result is deterministic — a function of (values,
// seed) only, independent of core count and scheduling.
func (p *Protocol) BuildSketch(values []uint64, seed int64) *Sketch {
	return &Sketch{proto: p, sk: core.Collect(p.params, p.fam, values, seed, buildShards)}
}

// ImportSnapshot decodes an unfinalized snapshot exported by another
// node into a mergeable Aggregator, after verifying its integrity (CRC)
// and that its configuration fingerprint — k, m, ε, and the hash-family
// seed — matches this protocol exactly. Merging imported aggregators
// and finalizing reproduces, byte for byte, the sketch a single node
// would have built from the concatenated report stream.
func (p *Protocol) ImportSnapshot(data []byte) (*Aggregator, error) {
	snap, err := protocol.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	if err := snap.CompatibleWithJoin(p.params, p.cfg.Seed); err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	if snap.Finalized {
		return nil, fmt.Errorf("ldpjoin: snapshot is finalized; use ImportFinalized")
	}
	agg, err := core.RestoreAggregator(p.params, p.fam, snap.Counts, snap.N)
	if err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	return &Aggregator{proto: p, agg: agg}, nil
}

// ImportFinalized decodes a finalized snapshot (Sketch.Snapshot) into a
// queryable Sketch, with the same integrity and configuration checks as
// ImportSnapshot.
func (p *Protocol) ImportFinalized(data []byte) (*Sketch, error) {
	snap, err := protocol.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	if err := snap.CompatibleWithJoin(p.params, p.cfg.Seed); err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	if !snap.Finalized {
		return nil, fmt.Errorf("ldpjoin: snapshot is unfinalized; use ImportSnapshot")
	}
	sk, err := core.RestoreSketch(p.params, p.fam, snap.Counts, snap.N)
	if err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	return &Sketch{proto: p, sk: sk}, nil
}

// Sketch is a finalized LDPJoinSketch. All query methods are read-only
// and safe for concurrent use.
type Sketch struct {
	proto *Protocol
	sk    *core.Sketch
}

// N returns the number of reports summarized.
func (s *Sketch) N() float64 { return s.sk.N() }

// JoinSize estimates |A ⋈ B| against another sketch from the same
// protocol (Eq 5 of the paper).
func (s *Sketch) JoinSize(other *Sketch) (float64, error) {
	if !s.sk.Compatible(other.sk) {
		return 0, fmt.Errorf("ldpjoin: sketches are not combinable (params %+v/seed %d vs params %+v/seed %d)",
			s.sk.Params(), s.sk.Family().Seed(), other.sk.Params(), other.sk.Family().Seed())
	}
	return s.sk.JoinSize(other.sk), nil
}

// SelfJoinSize estimates the second frequency moment F2 = Σ_d f(d)² of
// the sketched population, debiased for the protocol noise.
func (s *Sketch) SelfJoinSize() float64 { return s.sk.SelfJoinSize() }

// JoinSizeWhere estimates the join size restricted to a predicate on the
// join attribute: Σ_{d ∈ values} f_A(d)·f_B(d). This is the paper's
// approximate-query-processing motivation (§I, application 3): a COUNT
// join with a selection pushed down onto the join key, answered from the
// same sketches via per-value frequency products. Negative frequency
// estimates carry no mass.
func (s *Sketch) JoinSizeWhere(other *Sketch, values []uint64) (float64, error) {
	if !s.sk.Compatible(other.sk) {
		return 0, fmt.Errorf("ldpjoin: sketches are not combinable")
	}
	var est float64
	for _, d := range values {
		fa := s.sk.Frequency(d)
		fb := other.sk.Frequency(d)
		if fa > 0 && fb > 0 {
			est += fa * fb
		}
	}
	return est, nil
}

// Frequency estimates how many clients held the value d (Theorem 7; the
// unbiased mean estimator).
func (s *Sketch) Frequency(d uint64) float64 { return s.sk.Frequency(d) }

// FrequencyMedian is the robust (median-of-rows) frequency estimator,
// preferable when thresholding over large domains.
func (s *Sketch) FrequencyMedian(d uint64) float64 { return s.sk.FrequencyMedian(d) }

// Merge adds other's report counts into s. A finalized sketch is its
// integer counts, so the merge is exact: identical to a sketch built
// over both populations. The two must hold at most 2³¹−1 reports
// together. Merge mutates s and must not race its query methods.
func (s *Sketch) Merge(other *Sketch) error {
	if !s.sk.Compatible(other.sk) {
		return fmt.Errorf("ldpjoin: sketches are not combinable (params %+v/seed %d vs params %+v/seed %d)",
			s.sk.Params(), s.sk.Family().Seed(), other.sk.Params(), other.sk.Family().Seed())
	}
	if s.sk.N()+other.sk.N() > core.MaxReports {
		return fmt.Errorf("ldpjoin: merged sketch would summarize %v reports, beyond its %d-report limit", s.sk.N()+other.sk.N(), core.MaxReports)
	}
	s.sk.Merge(other.sk)
	return nil
}

// Snapshot exports the finalized sketch as a SNAP snapshot — the same
// codec ImportFinalized reads, carrying the configuration fingerprint
// and a CRC. Unlike MarshalBinary (the LJS2 catalog format) a
// snapshot can also carry unfinalized state; see Aggregator.Snapshot.
func (s *Sketch) Snapshot() ([]byte, error) {
	return protocol.EncodeSnapshot(protocol.SnapshotOfSketch(s.sk))
}

// MarshalBinary encodes the sketch for persistence or transfer. The
// encoding embeds the protocol parameters and hash seed, so the sketch
// unmarshals into a fully queryable, join-compatible object.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.sk.MarshalBinary() }

// UnmarshalSketch decodes a sketch produced by Sketch.MarshalBinary.
func UnmarshalSketch(data []byte) (*Sketch, error) {
	sk, err := core.UnmarshalSketch(data)
	if err != nil {
		return nil, fmt.Errorf("ldpjoin: %w", err)
	}
	p := sk.Params()
	proto := &Protocol{
		cfg:    Config{K: p.K, M: p.M, Epsilon: p.Epsilon, Seed: sk.Family().Seed()},
		params: p,
		fam:    sk.Family(),
	}
	return &Sketch{proto: proto, sk: sk}, nil
}

// PlusConfig configures LDPJoinSketch+.
type PlusConfig struct {
	Config
	// SampleRate is the fraction of users answering phase 1 (the paper's
	// r, typically 0.1–0.3).
	SampleRate float64
	// Theta is the frequency-share threshold separating frequent from
	// infrequent values (the paper's θ). It must clear the phase-1 noise
	// floor; see ThetaFloor.
	Theta float64
}

// ThetaFloor returns the smallest usable Theta for a population of n
// users at this config (below it, frequent-item selection drowns in
// noise — the degradation the paper shows in Fig 11).
func (c PlusConfig) ThetaFloor(n int) float64 {
	return core.ThetaFloor(c.Epsilon, int(c.SampleRate*float64(n)))
}

// JoinSizePlus runs the full two-phase LDPJoinSketch+ protocol over two
// private columns with candidate domain [0, domain). It reduces the
// hash-collision error of the plain sketch on skewed data by summarizing
// frequent and infrequent values separately, without spending extra
// privacy budget (each user participates exactly once).
func JoinSizePlus(a, b []uint64, domain uint64, cfg PlusConfig) (PlusResult, error) {
	// Reject undersized inputs before validating options: an empty column
	// is a caller bug about the data, and surfacing a config complaint
	// for it (or worse, passing when the config happens to be fine)
	// misdirects the fix.
	if len(a) < 10 || len(b) < 10 {
		return PlusResult{}, fmt.Errorf("ldpjoin: need at least 10 users per side, got %d and %d", len(a), len(b))
	}
	opt := core.PlusOptions{
		Params:     cfg.params(),
		SampleRate: cfg.SampleRate,
		Theta:      cfg.Theta,
		Seed:       cfg.Seed,
	}
	if err := opt.Validate(); err != nil {
		return PlusResult{}, fmt.Errorf("ldpjoin: %w", err)
	}
	return core.EstimateJoinPlus(a, b, domain, opt), nil
}
