package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ldpjoin/internal/hashing"
)

// Sketch serialization lets a server persist finalized sketches (a data
// catalog stores one per column and answers join queries much later) or
// ship them between aggregators. The format is versioned and
// self-describing:
//
//	magic "LJS2" | k u32 | m u32 | epsilon f64 | seed i64 | n f64 |
//	k·m report counts i32
//
// All values big-endian. The hash family is reconstructed from the seed,
// so a sketch unmarshals into a fully queryable object; combining two
// sketches still requires equal (k, m, epsilon, seed), which Unmarshal
// restores faithfully. "LJS1" — the same header over k·m restored
// float64 cells, before sketches held counts — is refused, not
// converted.

var (
	sketchMagic   = [4]byte{'L', 'J', 'S', '2'}
	sketchMagicV1 = [4]byte{'L', 'J', 'S', '1'}
)

// sketchHeaderLen is the encoded size of everything before the counts.
const sketchHeaderLen = 4 + 4 + 4 + 8 + 8 + 8

// ErrBadSketchEncoding is returned when the byte stream is not a valid
// sketch encoding.
var ErrBadSketchEncoding = errors.New("core: bad sketch encoding")

// MarshalBinary encodes the sketch.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, sketchHeaderLen+4*s.params.K*s.params.M)
	buf = append(buf, sketchMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.params.K))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.params.M))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.params.Epsilon))
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.fam.Seed()))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.N()))
	for _, row := range s.Counts() {
		for _, c := range row {
			buf = binary.BigEndian.AppendUint32(buf, uint32(c))
		}
	}
	return buf, nil
}

// checkReportCount refuses a report count that is not a whole number in
// [0, MaxReports] — one no state of int32 counts can hold.
func checkReportCount(n float64) error {
	if !(n >= 0 && n <= MaxReports && n == math.Trunc(n)) {
		return fmt.Errorf("core: report count %v is not a whole number in [0, %d]", n, MaxReports)
	}
	return nil
}

// countSums accumulates the two sums every count state is held to. Each
// report adds ±1 to exactly one count, so n reports leave counts whose
// magnitudes sum to at most n and whose sum has the parity of n —
// whatever the sketch's shape, and finalized or not.
type countSums struct{ abs, sum int64 }

// add folds one count in, failing as soon as the magnitudes pass n.
func (s *countSums) add(c int32, n float64) error {
	s.sum += int64(c)
	s.abs += max(int64(c), -int64(c))
	if s.abs > int64(n) {
		return fmt.Errorf("core: counts sum to more than the %v reports in magnitude", n)
	}
	return nil
}

// check applies the parity rule once every count is in.
func (s *countSums) check(n float64) error {
	if (s.sum-int64(n))%2 != 0 {
		return fmt.Errorf("core: counts sum to %d, which %v reports of ±1 cannot (the parity differs)", s.sum, n)
	}
	return nil
}

// CheckCounts returns nil when (rows, n) is state some stream of n
// reports could have folded into under p: K rows of M counts, n a whole
// number no larger than MaxReports, Σ|count| ≤ n and Σcount ≡ n (mod 2).
// Finalized and unfinalized state are both counts, so one check serves
// both — the join counterpart of CheckMatrixRuns.
func CheckCounts(p Params, rows [][]int32, n float64) error {
	if err := checkReportCount(n); err != nil {
		return err
	}
	if len(rows) != p.K {
		return fmt.Errorf("core: %d rows for a depth-%d sketch", len(rows), p.K)
	}
	var sums countSums
	for j, row := range rows {
		if len(row) != p.M {
			return fmt.Errorf("core: row %d has %d counts, want %d", j, len(row), p.M)
		}
		for _, c := range row {
			if err := sums.add(c, n); err != nil {
				return err
			}
		}
	}
	return sums.check(n)
}

// restoreState validates the (rows, n) state shared by every restore
// constructor: the snapshot codec hands decoded counts back to this
// package, which must never build an object that violates the invariants
// the rest of the code relies on.
func restoreState(p Params, fam *hashing.Family, rows [][]int32, n float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if fam == nil || fam.K() != p.K || fam.M() != p.M {
		return fmt.Errorf("core: hash family does not match params (k=%d, m=%d)", p.K, p.M)
	}
	return CheckCounts(p, rows, n)
}

// RestoreAggregator rebuilds an unfinalized aggregator from exported
// state, taking ownership of rows. It is the decode half of the snapshot
// codec: the rows are the report counts an exporter read via Rows, so an
// aggregator restored on another node merges exactly.
func RestoreAggregator(p Params, fam *hashing.Family, rows [][]int32, n float64) (*Aggregator, error) {
	if err := restoreState(p, fam, rows, n); err != nil {
		return nil, err
	}
	return &Aggregator{params: p, fam: fam, rows: rows, n: int64(n)}, nil
}

// RestoreSketch rebuilds a finalized sketch from exported state, taking
// ownership of rows.
func RestoreSketch(p Params, fam *hashing.Family, rows [][]int32, n float64) (*Sketch, error) {
	if err := restoreState(p, fam, rows, n); err != nil {
		return nil, err
	}
	return newSketch(p, fam, rows, int64(n)), nil
}

// UnmarshalSketch decodes a sketch produced by MarshalBinary,
// reconstructing its hash family from the embedded seed.
func UnmarshalSketch(data []byte) (*Sketch, error) {
	if len(data) < sketchHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrBadSketchEncoding, len(data))
	}
	switch [4]byte(data[:4]) {
	case sketchMagic:
	case sketchMagicV1:
		return nil, fmt.Errorf("%w: LJS1 encoding (restored float64 cells) is no longer read: sketches hold report counts since LJS2, and the old encoding has no converter", ErrBadSketchEncoding)
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadSketchEncoding)
	}
	k := int(binary.BigEndian.Uint32(data[4:8]))
	m := int(binary.BigEndian.Uint32(data[8:12]))
	eps := math.Float64frombits(binary.BigEndian.Uint64(data[12:20]))
	seed := int64(binary.BigEndian.Uint64(data[20:28]))
	n := math.Float64frombits(binary.BigEndian.Uint64(data[28:36]))
	p := Params{K: k, M: m, Epsilon: eps}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSketchEncoding, err)
	}
	// K and M each fit in 32 bits, so their product cannot overflow.
	if cells := uint64(k) * uint64(m); cells > uint64(len(data)-sketchHeaderLen)/4 || sketchHeaderLen+4*cells != uint64(len(data)) {
		return nil, fmt.Errorf("%w: %d bytes for a %dx%d sketch", ErrBadSketchEncoding, len(data), k, m)
	}
	counts := make([]int32, k*m)
	for i := range counts {
		counts[i] = int32(binary.BigEndian.Uint32(data[sketchHeaderLen+4*i:]))
	}
	rows := make([][]int32, k)
	for j := range rows {
		rows[j] = counts[j*m : (j+1)*m : (j+1)*m]
	}
	fam := p.NewFamily(seed)
	if err := restoreState(p, fam, rows, n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSketchEncoding, err)
	}
	return newSketch(p, fam, rows, int64(n)), nil
}
