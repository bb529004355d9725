package kernel

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ldpjoin/internal/race"
)

// naiveDot is the reference sequential inner product.
func naiveDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// radix2 is the textbook in-place radix-2 Walsh–Hadamard butterfly,
// the reference FWHT and FWHTScaled are pinned to bit for bit.
func radix2(v []float64) {
	n := len(v)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := v[j], v[j+h]
				v[j], v[j+h] = x+y, x-y
			}
		}
	}
}

// sortMedian is the reference median: copy, sort.Float64s, take the
// middle element or average the middle pair; NaN when empty.
func sortMedian(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	tmp := append([]float64(nil), v...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// TestEntryMatchesRecursiveDefinition builds H_8 by the recursive
// doubling definition and compares it with Entry's closed form.
func TestEntryMatchesRecursiveDefinition(t *testing.T) {
	const m = 8
	h := [][]int{{1}}
	for len(h) < m {
		n := len(h)
		next := make([][]int, 2*n)
		for i := range next {
			next[i] = make([]int, 2*n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[i][j] = h[i][j]
				next[i][j+n] = h[i][j]
				next[i+n][j] = h[i][j]
				next[i+n][j+n] = -h[i][j]
			}
		}
		h = next
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if Entry(i, j) != h[i][j] {
				t.Fatalf("Entry(%d,%d) = %d, want %d", i, j, Entry(i, j), h[i][j])
			}
		}
	}
}

func TestEntrySymmetry(t *testing.T) {
	f := func(i, j uint16) bool {
		return Entry(int(i), int(j)) == Entry(int(j), int(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOrthogonalRows checks that distinct rows of H_m are orthogonal and
// each row has squared norm m — the property behind E[H[h,L]^2] = 1 in the
// debiasing proofs.
func TestOrthogonalRows(t *testing.T) {
	const m = 64
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			dot := 0
			for l := 0; l < m; l++ {
				dot += Entry(i, l) * Entry(j, l)
			}
			want := 0
			if i == j {
				want = m
			}
			if dot != want {
				t.Fatalf("row dot(%d,%d) = %d, want %d", i, j, dot, want)
			}
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{0, false}, {1, true}, {2, true}, {3, false}, {4, true}, {1023, false}, {1024, true}, {-4, false}} {
		if got := IsPowerOfTwo(c.n); got != c.want {
			t.Errorf("IsPowerOfTwo(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestFWHTMatchesMatrix checks FWHT against the definition v × H_m,
// multiplied out the slow way through Entry.
func TestFWHTMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		for j := range want {
			for i := range v {
				want[j] += v[i] * float64(Entry(i, j))
			}
		}
		FWHT(v)
		for i := range want {
			if diff := v[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("n=%d: FWHT[%d]=%g, v×H_m %g", n, i, v[i], want[i])
			}
		}
	}
}

func TestFWHTPanicsOnNonPowerOfTwo(t *testing.T) {
	for name, f := range map[string]func([]float64){
		"FWHT":       FWHT,
		"FWHTScaled": func(v []float64) { FWHTScaled(v, 2) },
	} {
		for _, n := range []int{0, 3, 12} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic on length %d", name, n)
					}
				}()
				f(make([]float64, n))
			}()
		}
	}
}

// randVec draws a length-n vector of integer-valued cells in the range
// unfinalized sketch state actually holds (sums of ±1 contributions).
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(2001) - 1000)
	}
	return v
}

// TestFWHTBitExact pins the radix-4 kernel to the naive radix-2
// butterfly with exact (==) equality across every power-of-two length
// through 4× the cache block, on integer-valued and on fractional
// state. This is the guarantee federation and the golden SNAP/PSNP
// testdata lean on: a sketch finalized through the kernel is
// byte-identical to one finalized through the textbook butterfly.
func TestFWHTBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 4*fwhtBlock; n <<= 1 {
		for trial := 0; trial < 4; trial++ {
			want := randVec(rng, n)
			if trial%2 == 1 { // fractional cells (post-scale magnitudes)
				for i := range want {
					want[i] *= 1.375e3
				}
			}
			got := append([]float64(nil), want...)
			radix2(want)
			FWHT(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial=%d: FWHT[%d] = %v, naive %v", n, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFWHTScaledBitExact pins the fused scale+transform against
// scale-then-naive-transform, exactly — the Finalize path's identity.
func TestFWHTScaledBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 4*fwhtBlock; n <<= 1 {
		for _, c := range []float64{1, 2.5, 18 * 1.0398, -0.125} {
			want := randVec(rng, n)
			got := append([]float64(nil), want...)
			for i := range want {
				want[i] *= c
			}
			radix2(want)
			FWHTScaled(got, c)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d c=%v: FWHTScaled[%d] = %v, naive %v", n, c, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFWHTInvolution checks the defining property on the kernel alone:
// FWHT(FWHT(v)) = m·v, exactly, for integer-valued v (every
// intermediate is an integer sum well within float64 exactness).
func TestFWHTInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 1024; n <<= 1 {
		orig := randVec(rng, n)
		v := append([]float64(nil), orig...)
		FWHT(v)
		FWHT(v)
		for i := range v {
			if v[i] != float64(n)*orig[i] {
				t.Fatalf("n=%d: double transform[%d] = %v, want %v", n, i, v[i], float64(n)*orig[i])
			}
		}
	}
}

// TestTransformInvolution checks H·H = m·I on Gaussian (non-integer)
// input, where the double transform is exact only up to rounding.
func TestTransformInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 128
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	w := append([]float64(nil), v...)
	FWHT(w)
	FWHT(w)
	for i := range v {
		if diff := w[i] - float64(n)*v[i]; diff > 1e-8 || diff < -1e-8 {
			t.Fatalf("involution failed at %d: got %g want %g", i, w[i], float64(n)*v[i])
		}
	}
}

// TestDotProperty pins Dot and DotShifted against the sequential
// reference within floating-point reassociation tolerance, over
// quick-generated vectors.
func TestDotProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(func(pairs []struct{ A, B int16 }, caRaw, cbRaw int16) bool {
		a := make([]float64, len(pairs))
		b := make([]float64, len(pairs))
		var scale float64
		for i, p := range pairs {
			a[i], b[i] = float64(p.A), float64(p.B)
			scale += math.Abs(a[i]*b[i]) + 1
		}
		ca, cb := float64(caRaw)/8, float64(cbRaw)/8
		if d := Dot(a, b); math.Abs(d-naiveDot(a, b)) > 1e-9*scale {
			return false
		}
		want := 0.0
		for i := range a {
			want += (a[i] - ca) * (b[i] - cb)
		}
		shiftScale := scale + float64(len(a))*(math.Abs(ca)+1)*(math.Abs(cb)+1)*1e3
		return math.Abs(DotShifted(a, b, ca, cb)-want) <= 1e-9*shiftScale
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDotShiftedMatchesMinusConstant checks the algebraic identity the
// plus join path relies on: DotShifted equals the dot of the two
// shifted copies (same subtract-then-multiply per element).
func TestDotShiftedMatchesMinusConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3, 4, 7, 64, 513} {
		a, b := randVec(rng, n), randVec(rng, n)
		ca, cb := rng.Float64()*10, rng.Float64()*10
		sa := make([]float64, n)
		sb := make([]float64, n)
		for i := 0; i < n; i++ {
			sa[i], sb[i] = a[i]-ca, b[i]-cb
		}
		want := naiveDot(sa, sb)
		got := DotShifted(a, b, ca, cb)
		tol := 1e-9 * (math.Abs(want) + 1)
		if math.Abs(got-want) > tol {
			t.Fatalf("n=%d: DotShifted = %v, shifted naive dot %v", n, got, want)
		}
	}
}

// TestMedianInPlace pins MedianInPlace against sortMedian, exactly,
// including even lengths, duplicates and the empty vector.
func TestMedianInPlace(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(func(raw []int16) bool {
		v := make([]float64, len(raw))
		for i, x := range raw {
			v[i] = float64(x % 8) // force duplicates
		}
		want := sortMedian(v)
		got := MedianInPlace(v)
		if len(raw) == 0 {
			return math.IsNaN(got) && math.IsNaN(want)
		}
		return got == want && sort.Float64sAreSorted(v)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 2, 3}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-5, 10, 0}, 0},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := MedianInPlace(in); got != c.want {
			t.Errorf("MedianInPlace(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(MedianInPlace(nil)) {
		t.Error("MedianInPlace(nil) should be NaN")
	}
}

func TestMedianPermutationInvariant(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		m1 := MedianInPlace([]float64{a, b, c, d})
		m2 := MedianInPlace([]float64{d, c, b, a})
		return m1 == m2 || (math.IsNaN(m1) && math.IsNaN(m2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndDot(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if got := Dot([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Fatalf("Dot = %g, want 11", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	for name, f := range map[string]func(a, b []float64){
		"Dot":        func(a, b []float64) { Dot(a, b) },
		"DotShifted": func(a, b []float64) { DotShifted(a, b, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on length mismatch", name)
				}
			}()
			f([]float64{1}, []float64{1, 2})
		}()
	}
}

// TestRowApply checks completeness (every row exactly once) and that
// results do not depend on GOMAXPROCS-driven scheduling.
func TestRowApply(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		hits := make([]atomic.Int32, n)
		RowApply(n, func(j int) { hits[j].Add(1) })
		for j := range hits {
			if got := hits[j].Load(); got != 1 {
				t.Fatalf("n=%d: row %d applied %d times", n, j, got)
			}
		}
	}
}

// TestRowApplyParallelFWHT is the race-detector canary for the parallel
// finalize shape: many rows transformed concurrently must equal the
// serial result exactly.
func TestRowApplyParallelFWHT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const k, m = 32, 256
	rows := make([][]float64, k)
	want := make([][]float64, k)
	for j := range rows {
		rows[j] = randVec(rng, m)
		want[j] = append([]float64(nil), rows[j]...)
		radix2(want[j])
	}
	RowApply(k, func(j int) { FWHTScaled(rows[j], 1) })
	for j := range rows {
		for i := range rows[j] {
			if rows[j][i] != want[j][i] {
				t.Fatalf("row %d cell %d: %v != %v", j, i, rows[j][i], want[j][i])
			}
		}
	}
}

var (
	allocSink float64
	allocRow  []float64
)

// TestKernelsDoNotAllocate is the allocation ceiling of the package, at
// 0: every finalize, join and frequency estimate runs on these bodies,
// so an allocation here is paid on every served query. RowApply
// is measured on its inline path (one row), which is the single-row and
// single-CPU case; its parallel path spawns a goroutine per worker. Its
// fn captures nothing, because a capturing closure escapes into those
// goroutines and is the caller's allocation, not RowApply's. A count,
// not a timing, so it blocks on any machine.
func TestKernelsDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector say nothing about the code")
	}
	rng := rand.New(rand.NewSource(9))
	small, large := randVec(rng, 1024), randVec(rng, 4*fwhtBlock)
	a, b := randVec(rng, 1024), randVec(rng, 1024)
	rows := randVec(rng, 18)
	allocRow = small
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"FWHT", func() { FWHT(small) }},
		{"FWHT/blocked", func() { FWHT(large) }},
		{"FWHTScaled", func() { FWHTScaled(small, 0.5) }},
		{"FWHTScaled/blocked", func() { FWHTScaled(large, 0.5) }},
		{"Dot", func() { allocSink = Dot(a, b) }},
		{"DotShifted", func() { allocSink = DotShifted(a, b, 1.5, 2.5) }},
		{"MedianInPlace", func() { allocSink = MedianInPlace(rows) }},
		{"Mean", func() { allocSink = Mean(rows) }},
		{"RowApply/inline", func() { RowApply(1, func(int) { FWHT(allocRow) }) }},
	} {
		if n := testing.AllocsPerRun(20, tc.f); n != 0 {
			t.Errorf("%s allocates %v times per call, ceiling 0", tc.name, n)
		}
	}
}
