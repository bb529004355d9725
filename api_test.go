package ldpjoin_test

import (
	"math"
	"strings"
	"testing"

	"ldpjoin"
	"ldpjoin/internal/dataset"
	"ldpjoin/internal/join"
)

func TestNewProtocolValidation(t *testing.T) {
	if _, err := ldpjoin.NewProtocol(ldpjoin.DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := ldpjoin.DefaultConfig()
	bad.M = 1000 // not a power of two
	if _, err := ldpjoin.NewProtocol(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	bad = ldpjoin.DefaultConfig()
	bad.Epsilon = -1
	if _, err := ldpjoin.NewProtocol(bad); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	cfg := ldpjoin.Config{K: 9, M: 1024, Epsilon: 4, Seed: 7}
	proto, err := ldpjoin.NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	da := dataset.Zipf(1, 100000, 10000, 1.5)
	db := dataset.Zipf(2, 100000, 10000, 1.5)
	truth := join.Size(da, db)

	// Client/aggregator path.
	aggA := proto.NewAggregator()
	cli := proto.NewClient(3)
	for _, d := range da {
		aggA.Add(cli.Report(d))
	}
	if aggA.N() != float64(len(da)) {
		t.Fatalf("N = %g", aggA.N())
	}
	skA := aggA.Sketch()

	// Column shortcut path.
	aggB := proto.NewAggregator()
	aggB.AddColumn(db, 4)
	skB := aggB.Sketch()

	est, err := skA.JoinSize(skB)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(est-truth) / truth; re > 0.3 {
		t.Fatalf("facade join RE = %.3f (est %.0f truth %.0f)", re, est, truth)
	}
}

func TestFacadeJoinSizeConfigMismatch(t *testing.T) {
	p1, _ := ldpjoin.NewProtocol(ldpjoin.Config{K: 4, M: 256, Epsilon: 2, Seed: 1})
	p2, _ := ldpjoin.NewProtocol(ldpjoin.Config{K: 4, M: 256, Epsilon: 2, Seed: 2})
	s1 := p1.NewAggregator().Sketch()
	s2 := p2.NewAggregator().Sketch()
	if _, err := s1.JoinSize(s2); err == nil {
		t.Fatal("join across different seeds accepted")
	}
}

func TestBuildSketchParallelFacade(t *testing.T) {
	proto, _ := ldpjoin.NewProtocol(ldpjoin.Config{K: 9, M: 512, Epsilon: 4, Seed: 1})
	data := dataset.Zipf(5, 50000, 5000, 1.3)
	s1 := proto.BuildSketch(data, 42)
	s2 := proto.BuildSketch(data, 42)
	if s1.N() != 50000 || s2.N() != 50000 {
		t.Fatalf("N = %g, %g", s1.N(), s2.N())
	}
	// Deterministic: same frequency estimates.
	for d := uint64(0); d < 100; d++ {
		if s1.Frequency(d) != s2.Frequency(d) {
			t.Fatal("parallel facade build not deterministic")
		}
	}
}

func TestSelfJoinSizeEstimatesF2(t *testing.T) {
	proto, _ := ldpjoin.NewProtocol(ldpjoin.Config{K: 9, M: 1024, Epsilon: 6, Seed: 11})
	data := dataset.Zipf(6, 200000, 5000, 1.3)
	sk := proto.BuildSketch(data, 13)
	truth := join.F2(data)
	est := sk.SelfJoinSize()
	if re := math.Abs(est-truth) / truth; re > 0.3 {
		t.Fatalf("F2 estimate RE = %.3f (est %.4g truth %.4g)", re, est, truth)
	}
}

func TestFrequencyMeanAndMedian(t *testing.T) {
	proto, _ := ldpjoin.NewProtocol(ldpjoin.Config{K: 9, M: 2048, Epsilon: 4, Seed: 21})
	data := dataset.Zipf(7, 150000, 2000, 1.5)
	sk := proto.BuildSketch(data, 23)
	truth := join.Frequencies(data)

	// Mean and median estimators agree on the dominant value.
	var top uint64
	var max int64
	for d, c := range truth {
		if c > max {
			top, max = d, c
		}
	}
	mean, med := sk.Frequency(top), sk.FrequencyMedian(top)
	if math.Abs(mean-float64(max)) > 0.2*float64(max) || math.Abs(med-float64(max)) > 0.2*float64(max) {
		t.Fatalf("top-value estimates mean=%.0f median=%.0f truth=%d", mean, med, max)
	}
}

func TestJoinSizePlusFacade(t *testing.T) {
	da := dataset.Zipf(8, 150000, 5000, 1.2)
	db := dataset.Zipf(9, 150000, 5000, 1.2)
	truth := join.Size(da, db)
	cfg := ldpjoin.PlusConfig{
		Config:     ldpjoin.Config{K: 9, M: 1024, Epsilon: 4, Seed: 31},
		SampleRate: 0.2,
		Theta:      0.05,
	}
	if floor := cfg.ThetaFloor(len(da)); cfg.Theta < floor {
		t.Fatalf("test config below noise floor %g", floor)
	}
	res, err := ldpjoin.JoinSizePlus(da, db, 5000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(res.Estimate-truth) / truth; re > 0.4 {
		t.Fatalf("plus facade RE = %.3f", re)
	}
}

func TestJoinSizePlusErrors(t *testing.T) {
	good := ldpjoin.PlusConfig{Config: ldpjoin.DefaultConfig(), SampleRate: 0.2, Theta: 0.05}
	enough := make([]uint64, 100)
	tiny := []uint64{1}
	tests := []struct {
		name string
		a, b []uint64
		mut  func(*ldpjoin.PlusConfig)
		want string // substring the error must carry
	}{
		{"tiny left", tiny, enough, nil, "at least 10 users"},
		{"tiny right", enough, tiny, nil, "at least 10 users"},
		// The size check must win even when the config is also broken:
		// before the reorder this case reported "theta" and misdirected
		// the caller at their configuration instead of their data.
		{"tiny input with bad config", tiny, tiny,
			func(c *ldpjoin.PlusConfig) { c.Theta = 0 }, "at least 10 users"},
		{"zero depth", enough, enough,
			func(c *ldpjoin.PlusConfig) { c.K = 0 }, "depth K"},
		{"width not a power of two", enough, enough,
			func(c *ldpjoin.PlusConfig) { c.M = 1000 }, "power of two"},
		{"non-positive epsilon", enough, enough,
			func(c *ldpjoin.PlusConfig) { c.Epsilon = 0 }, "epsilon"},
		{"zero sample rate", enough, enough,
			func(c *ldpjoin.PlusConfig) { c.SampleRate = 0 }, "sample rate"},
		{"sample rate of one", enough, enough,
			func(c *ldpjoin.PlusConfig) { c.SampleRate = 1 }, "sample rate"},
		{"zero theta", enough, enough,
			func(c *ldpjoin.PlusConfig) { c.Theta = 0 }, "theta"},
		{"theta of one", enough, enough,
			func(c *ldpjoin.PlusConfig) { c.Theta = 1 }, "theta"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			_, err := ldpjoin.JoinSizePlus(tc.a, tc.b, 10, cfg)
			if err == nil {
				t.Fatal("invalid call accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The good config over enough users must pass the gate (and the
	// estimator itself must run).
	if _, err := ldpjoin.JoinSizePlus(enough, enough, 10, good); err != nil {
		t.Fatalf("valid call rejected: %v", err)
	}
}

func TestChainProtocolFacade(t *testing.T) {
	cfg := ldpjoin.Config{K: 9, M: 256, Epsilon: 6, Seed: 41}
	cp, err := ldpjoin.NewChainProtocol(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Attributes() != 2 {
		t.Fatalf("attrs = %d", cp.Attributes())
	}
	const n, domain = 60000, 300
	t1 := dataset.Zipf(51, n, domain, 1.5)
	t3 := dataset.Zipf(52, n, domain, 1.5)
	mid := join.PairTable{A: dataset.Zipf(53, n, domain, 1.5), B: dataset.Zipf(54, n, domain, 1.5)}
	truth := join.ChainSize(t1, []join.PairTable{mid}, t3)

	left, err := cp.BuildEnd(0, t1, 1)
	if err != nil {
		t.Fatal(err)
	}
	right, err := cp.BuildEnd(1, t3, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cp.BuildMid(0, mid.A, mid.B, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != n {
		t.Fatalf("mid N = %g", m.N())
	}
	est, err := cp.Estimate(left, []*ldpjoin.MatrixSketch{m}, right)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(est-truth) / truth; re > 0.6 {
		t.Fatalf("chain facade RE = %.3f (est %.4g truth %.4g)", re, est, truth)
	}
}

func TestChainProtocolErrors(t *testing.T) {
	cfg := ldpjoin.Config{K: 2, M: 64, Epsilon: 2, Seed: 1}
	if _, err := ldpjoin.NewChainProtocol(cfg, 1); err == nil {
		t.Fatal("1-attribute chain accepted")
	}
	bad := cfg
	bad.K = 0
	if _, err := ldpjoin.NewChainProtocol(bad, 2); err == nil {
		t.Fatal("bad config accepted")
	}
	cp, _ := ldpjoin.NewChainProtocol(cfg, 2)
	if _, err := cp.BuildEnd(5, []uint64{1}, 1); err == nil {
		t.Fatal("bad end attribute accepted")
	}
	if _, err := cp.BuildMid(3, []uint64{1}, []uint64{1}, 1); err == nil {
		t.Fatal("bad mid attribute accepted")
	}
	if _, err := cp.BuildMid(0, []uint64{1, 2}, []uint64{1}, 1); err == nil {
		t.Fatal("ragged mid table accepted")
	}
	left, _ := cp.BuildEnd(0, []uint64{1}, 1)
	right, _ := cp.BuildEnd(1, []uint64{1}, 2)
	if _, err := cp.Estimate(left, nil, right); err == nil {
		t.Fatal("wrong mid count accepted")
	}
}

func TestReportBitsAndSketchBytes(t *testing.T) {
	proto, _ := ldpjoin.NewProtocol(ldpjoin.DefaultConfig())
	if proto.ReportBits() != 1 {
		t.Fatalf("ReportBits = %d", proto.ReportBits())
	}
	if proto.SketchBytes() != 18*1024*8 {
		t.Fatalf("SketchBytes = %d", proto.SketchBytes())
	}
	if proto.Config().K != 18 {
		t.Fatalf("Config lost: %+v", proto.Config())
	}
}
