package ldpjoin_test

import (
	"hash/crc32"
	"testing"

	"ldpjoin"
	"ldpjoin/internal/dataset"
)

// TestFacadeBuildsGolden pins the bytes of the facade's parallel
// builds. BuildSketch, BuildEnd and BuildMid promise a deterministic
// function of (data, seed): the chunking and every per-chunk client seed
// are part of that promise, so the CRC32 of each result's SNAP encoding
// must never move. A changed chunk count, chunk boundary or seed
// derivation fails here.
func TestFacadeBuildsGolden(t *testing.T) {
	const n, domain = 20000, 400
	cfg := ldpjoin.Config{K: 9, M: 256, Epsilon: 4, Seed: 71}
	a := dataset.Zipf(72, n, domain, 1.3)
	b := dataset.Zipf(73, n, domain, 1.3)

	crc := func(snap []byte, err error) uint32 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return crc32.ChecksumIEEE(snap)
	}
	proto, err := ldpjoin.NewProtocol(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ldpjoin.NewChainProtocol(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	end, err := cp.BuildEnd(2, b, 75)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := cp.BuildMid(1, a, b, 76)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  uint32
		want uint32
	}{
		{"BuildSketch", crc(proto.BuildSketch(a, 74).Snapshot()), 0xa16fbc26},
		{"BuildEnd", crc(end.Snapshot()), 0x22720bd5},
		{"BuildMid", crc(mid.Snapshot()), 0x05766650},
	} {
		if c.got != c.want {
			t.Errorf("%s snapshot CRC32 = %#08x, want %#08x", c.name, c.got, c.want)
		}
	}
}
