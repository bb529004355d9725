// Plus snapshot codec: the cross-node serialization of a two-phase
// LDPJoinSketch+ column. A plus column is three pieces of ordinary
// join-sketch state — the phase-1 sample and the two phase-2 FAP group
// sketches — plus the phase boundary itself: whether the column has
// advanced, and if so under which (domain, θ, FI). The composite
// format embeds the three SNAP encodings verbatim so every guarantee
// of the base codec (canonical bytes, report-count validation,
// fingerprint checks) carries over unchanged:
//
//	header (all integers big-endian):
//	  magic "PSNP" | version u8 | flags u8 | reserved u16 (0)
//	  domain u64 | theta f64 | fiCount u32 | fi u64 × fiCount
//	blobs (each length-prefixed, SNAP-encoded):
//	  sampleLen u32 | sample SNAP
//	  lowLen u32 | low SNAP | highLen u32 | high SNAP   (advanced only)
//	trailer:
//	  crc32 (IEEE) u32 over header + blobs
//
// flags bit 0 marks a finalized column, bit 1 an advanced one; a
// finalized column is necessarily advanced. Before the advance the
// column is only its sample window: domain, theta and fi must be zero
// and the low/high blobs absent. FI is stored sorted strictly
// ascending — the canonical form — so byte-identical recovery and
// federation can compare encodings directly.
package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"ldpjoin/internal/core"
)

// PlusSnapshotVersion is the plus-snapshot format version this package
// encodes: version 2 embeds version 2 SNAPs, which hold report counts.
// Version 1, which embedded float64 join snapshots, is refused, not
// converted.
const PlusSnapshotVersion = 2

var plusSnapMagic = [4]byte{'P', 'S', 'N', 'P'}

const (
	plusFlagFinalized = 1 << 0
	plusFlagAdvanced  = 1 << 1
)

// plusSnapHeaderSize is the fixed part of the header, before the FI
// list.
const plusSnapHeaderSize = 4 + 1 + 1 + 2 + 8 + 8 + 4

// PlusSnapshot is the decoded (or to-be-encoded) form of one plus
// column's exported state. Like Snapshot, the embedded snapshots share
// the live rows of whatever produced them; the exporter must be
// quiescent while encoding.
type PlusSnapshot struct {
	Finalized bool
	Advanced  bool
	// Domain and Theta are the advance parameters (zero until Advanced).
	Domain uint64
	Theta  float64
	// FI is the frozen frequent-item set, sorted strictly ascending
	// (empty until Advanced).
	FI []uint64
	// Sample is the phase-1 sample sketch state.
	Sample *Snapshot
	// Low and High are the phase-2 group sketch states (nil until
	// Advanced).
	Low  *Snapshot
	High *Snapshot
}

// N returns the column's total report count across all phases.
func (s *PlusSnapshot) N() float64 {
	n := s.Sample.N
	if s.Low != nil {
		n += s.Low.N
	}
	if s.High != nil {
		n += s.High.N
	}
	return n
}

// Validate checks the composite invariants: phase flags consistent
// with the blobs present, FI canonical and within the domain, and
// every embedded snapshot a structurally valid join snapshot agreeing
// with the composite on finalization and parameters.
func (s *PlusSnapshot) Validate() error {
	if s.Finalized && !s.Advanced {
		return fmt.Errorf("%w: finalized plus snapshot that never advanced", ErrBadSnapshot)
	}
	if !s.Advanced {
		if s.Domain != 0 || s.Theta != 0 || len(s.FI) != 0 {
			return fmt.Errorf("%w: pre-advance plus snapshot carries advance parameters", ErrBadSnapshot)
		}
		if s.Low != nil || s.High != nil {
			return fmt.Errorf("%w: pre-advance plus snapshot carries group sketches", ErrBadSnapshot)
		}
	} else {
		if s.Domain == 0 {
			return fmt.Errorf("%w: advanced plus snapshot with zero domain", ErrBadSnapshot)
		}
		if !(s.Theta > 0 && s.Theta < 1) {
			return fmt.Errorf("%w: advance theta %v outside (0,1)", ErrBadSnapshot, s.Theta)
		}
		if len(s.FI) > MaxPlusFI {
			return fmt.Errorf("%w: FI count %d exceeds %d", ErrBadSnapshot, len(s.FI), MaxPlusFI)
		}
		for i, d := range s.FI {
			if d >= s.Domain {
				return fmt.Errorf("%w: frequent item %d outside domain %d", ErrBadSnapshot, d, s.Domain)
			}
			if i > 0 && d <= s.FI[i-1] {
				return fmt.Errorf("%w: frequent items not strictly ascending at index %d", ErrBadSnapshot, i)
			}
		}
		if s.Low == nil || s.High == nil {
			return fmt.Errorf("%w: advanced plus snapshot missing group sketches", ErrBadSnapshot)
		}
	}
	if s.Sample == nil {
		return fmt.Errorf("%w: plus snapshot missing sample sketch", ErrBadSnapshot)
	}
	phases := []struct {
		name string
		snap *Snapshot
	}{{"sample", s.Sample}, {"low", s.Low}, {"high", s.High}}
	for _, ph := range phases {
		if ph.snap == nil {
			continue
		}
		if ph.snap.Kind != SnapshotJoin {
			return fmt.Errorf("%w: %s phase is not join state", ErrBadSnapshot, ph.name)
		}
		if ph.snap.Finalized != s.Finalized {
			return fmt.Errorf("%w: %s phase finalization disagrees with the column's", ErrBadSnapshot, ph.name)
		}
		if err := ph.snap.Validate(); err != nil {
			return fmt.Errorf("%s phase: %w", ph.name, err)
		}
		if ph.snap.K != s.Sample.K || ph.snap.M1 != s.Sample.M1 || ph.snap.Epsilon != s.Sample.Epsilon {
			return fmt.Errorf("%w: %s phase parameters disagree with the sample's", ErrBadSnapshot, ph.name)
		}
	}
	if s.Advanced && s.Low.SeedA != s.High.SeedA {
		return fmt.Errorf("%w: low and high phases use different hash families", ErrBadSnapshot)
	}
	return nil
}

// CompatibleWithPlus returns nil when every embedded snapshot was
// built under exactly (p, the phase seeds derived from seed) — the
// precondition for merging it into a local plus column.
func (s *PlusSnapshot) CompatibleWithPlus(p core.Params, seed int64) error {
	if err := s.Sample.CompatibleWithJoin(p, core.PlusSampleSeed(seed)); err != nil {
		return fmt.Errorf("sample phase: %w", err)
	}
	if s.Low != nil {
		if err := s.Low.CompatibleWithJoin(p, core.PlusGroupSeed(seed)); err != nil {
			return fmt.Errorf("low phase: %w", err)
		}
	}
	if s.High != nil {
		if err := s.High.CompatibleWithJoin(p, core.PlusGroupSeed(seed)); err != nil {
			return fmt.Errorf("high phase: %w", err)
		}
	}
	return nil
}

// PlusSnapshotMaxEncodedSize bounds the wire size of any valid plus
// snapshot under the given parameters — importers use it to bound
// request bodies before reading them.
func PlusSnapshotMaxEncodedSize(p core.Params) int {
	return plusSnapHeaderSize + 8*MaxPlusFI + 3*(4+SnapshotEncodedSize(p)) + snapTrailerSize
}

// IsPlusSnapshot reports whether the leading bytes carry the plus
// snapshot magic. Nothing is authenticated here — DecodePlusSnapshot
// still validates the whole encoding, version included, so an old
// version reaches the decoder that names the break.
func IsPlusSnapshot(prefix []byte) bool {
	return len(prefix) >= 4 && [4]byte(prefix[:4]) == plusSnapMagic
}

// EncodePlusSnapshot validates and encodes a plus snapshot.
func EncodePlusSnapshot(s *PlusSnapshot) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, plusSnapHeaderSize+8*len(s.FI)+4+s.Sample.EncodedSize())
	buf = append(buf, plusSnapMagic[:]...)
	var flags byte
	if s.Finalized {
		flags |= plusFlagFinalized
	}
	if s.Advanced {
		flags |= plusFlagAdvanced
	}
	buf = append(buf, PlusSnapshotVersion, flags, 0, 0)
	buf = binary.BigEndian.AppendUint64(buf, s.Domain)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Theta))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.FI)))
	for _, d := range s.FI {
		buf = binary.BigEndian.AppendUint64(buf, d)
	}
	blobs := []*Snapshot{s.Sample}
	if s.Advanced {
		blobs = append(blobs, s.Low, s.High)
	}
	for _, snap := range blobs {
		enc, err := EncodeSnapshot(snap)
		if err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(enc)))
		buf = append(buf, enc...)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// DecodePlusSnapshot decodes and fully validates a plus snapshot:
// magic, version, checksum, phase structure, and every embedded
// snapshot through the base codec.
func DecodePlusSnapshot(data []byte) (*PlusSnapshot, error) {
	if len(data) < plusSnapHeaderSize+snapTrailerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a plus snapshot header", ErrBadSnapshot, len(data))
	}
	if [4]byte(data[:4]) != plusSnapMagic {
		return nil, fmt.Errorf("%w: bad plus magic", ErrBadSnapshot)
	}
	switch data[4] {
	case PlusSnapshotVersion:
	case 1:
		return nil, fmt.Errorf("%w: version 1 plus snapshot (embedded float64 join snapshots) is no longer read: plus state is report counts since PSNP version 2, and the old encoding has no converter", ErrBadSnapshot)
	default:
		return nil, fmt.Errorf("%w: unsupported plus version %d", ErrBadSnapshot, data[4])
	}
	body, trailer := data[:len(data)-snapTrailerSize], data[len(data)-snapTrailerSize:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (computed %08x, stored %08x)", ErrBadSnapshot, got, want)
	}
	flags := data[5]
	if flags&^byte(plusFlagFinalized|plusFlagAdvanced) != 0 {
		return nil, fmt.Errorf("%w: unknown flag bits %02x", ErrBadSnapshot, flags)
	}
	if data[6] != 0 || data[7] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved bytes", ErrBadSnapshot)
	}
	s := &PlusSnapshot{
		Finalized: flags&plusFlagFinalized != 0,
		Advanced:  flags&plusFlagAdvanced != 0,
		Domain:    binary.BigEndian.Uint64(data[8:16]),
		Theta:     math.Float64frombits(binary.BigEndian.Uint64(data[16:24])),
	}
	count := binary.BigEndian.Uint32(data[24:28])
	if count > MaxPlusFI {
		return nil, fmt.Errorf("%w: FI count %d exceeds %d", ErrBadSnapshot, count, MaxPlusFI)
	}
	rest := body[plusSnapHeaderSize:]
	if len(rest) < 8*int(count) {
		return nil, fmt.Errorf("%w: truncated FI list", ErrBadSnapshot)
	}
	if count > 0 {
		s.FI = make([]uint64, count)
		for i := range s.FI {
			s.FI[i] = binary.BigEndian.Uint64(rest[8*i:])
		}
	}
	rest = rest[8*count:]
	nblobs := 1
	if s.Advanced {
		nblobs = 3
	}
	snaps := make([]*Snapshot, nblobs)
	for i := range snaps {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated phase blob %d", ErrBadSnapshot, i)
		}
		blobLen := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint64(blobLen) > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: phase blob %d declares %d bytes, %d remain", ErrBadSnapshot, i, blobLen, len(rest))
		}
		snap, err := DecodeSnapshot(rest[:blobLen])
		if err != nil {
			return nil, fmt.Errorf("phase blob %d: %w", i, err)
		}
		snaps[i] = snap
		rest = rest[blobLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after phase blobs", ErrBadSnapshot, len(rest))
	}
	s.Sample = snaps[0]
	if s.Advanced {
		s.Low, s.High = snaps[1], snaps[2]
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// PlusSnapshotOfState wraps a finalized plus column state as a
// snapshot without copying.
func PlusSnapshotOfState(st *core.PlusState) *PlusSnapshot {
	return &PlusSnapshot{
		Finalized: true,
		Advanced:  true,
		Domain:    st.Domain,
		Theta:     st.Theta,
		FI:        st.FI,
		Sample:    SnapshotOfSketch(st.Sample),
		Low:       SnapshotOfSketch(st.Low),
		High:      SnapshotOfSketch(st.High),
	}
}

// PlusState restores a finalized plus column state from a finalized
// plus snapshot.
func (s *PlusSnapshot) PlusState() (*core.PlusState, error) {
	if !s.Finalized {
		return nil, fmt.Errorf("%w: unfinalized plus snapshot cannot restore a finalized state", ErrSnapshotMismatch)
	}
	sample, err := s.Sample.Sketch()
	if err != nil {
		return nil, err
	}
	low, err := s.Low.Sketch()
	if err != nil {
		return nil, err
	}
	high, err := s.High.Sketch()
	if err != nil {
		return nil, err
	}
	return &core.PlusState{
		Sample: sample,
		Low:    low,
		High:   high,
		Domain: s.Domain,
		Theta:  s.Theta,
		FI:     s.FI,
	}, nil
}
