package dsp

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"ecocapsule/internal/conc"
)

// convolvePath convolves x into a fresh OutLen(len(x)) slice: path "direct"
// or "fft" forces that engine, anything else takes ApplyTo's cost-model pick.
func convolvePath(c *Convolver, x []float64, path string) []float64 {
	out := make([]float64, c.OutLen(len(x)))
	if len(out) == 0 {
		return out
	}
	switch path {
	case "direct":
		c.applyDirect(out, x)
	case "fft":
		c.applyFFT(out, x)
	default:
		c.ApplyTo(out, x)
	}
	return out
}

// naiveConvolve is the O(n·taps) reference both production paths are
// checked against.
func naiveConvolve(x []float64, offsets []int, gains []float64, outLen int) []float64 {
	out := make([]float64, outLen)
	for t, off := range offsets {
		for i, v := range x {
			out[i+off] += gains[t] * v
		}
	}
	return out
}

// directOracle is the tap-by-tap direct loop the blocked kernel replaced:
// each tap in turn adds its gain times x onto its window of out. The
// blocked applyDirect must equal it bit for bit.
func directOracle(c *Convolver, out, x []float64) {
	for t, off := range c.offsets {
		g := c.gains[t]
		dst := out[off : off+len(x)]
		for i, v := range x {
			dst[i] += g * v
		}
	}
}

// randomKernel draws a sparse kernel with the given tap count and span.
func randomKernel(src *NoiseSource, taps, span int) ([]int, []float64) {
	offs := make([]int, taps)
	gains := make([]float64, taps)
	for i := range offs {
		offs[i] = src.Intn(span)
		gains[i] = src.Gaussian(1)
	}
	return offs, gains
}

// TestConvolverEquivalenceProperty drives 1000 seeded cases through both
// paths across three signal families — impulse, tone, Gaussian noise — and
// requires FFT == direct within 1e-9 everywhere (the ISSUE 5 contract).
func TestConvolverEquivalenceProperty(t *testing.T) {
	const cases = 1000
	src := NewNoiseSource(0xC04)
	for cse := 0; cse < cases; cse++ {
		n := 1 + src.Intn(2000)
		taps := 1 + src.Intn(64)
		span := 1 + src.Intn(4096)
		offs, gains := randomKernel(src, taps, span)
		x := make([]float64, n)
		switch cse % 3 {
		case 0: // impulse at a random position
			x[src.Intn(n)] = 1
		case 1: // unit tone
			f := 0.01 + 0.4*src.Uniform()
			for i := range x {
				x[i] = math.Sin(2 * math.Pi * f * float64(i))
			}
		default: // Gaussian noise
			for i := range x {
				x[i] = src.Gaussian(1)
			}
		}
		c := NewSparseConvolver(offs, gains)
		direct := convolvePath(c, x, "direct")
		fft := convolvePath(c, x, "fft")
		if len(direct) != len(fft) || len(direct) != c.OutLen(n) {
			t.Fatalf("case %d: length mismatch direct=%d fft=%d want=%d",
				cse, len(direct), len(fft), c.OutLen(n))
		}
		for i := range direct {
			if d := math.Abs(direct[i] - fft[i]); d > 1e-9 {
				t.Fatalf("case %d (n=%d taps=%d span=%d): FFT diverges from direct at %d by %g",
					cse, n, taps, span, i, d)
			}
		}
	}
}

// TestConvolverMatchesNaive pins both paths to the reference loop on a few
// deliberately awkward shapes (tap on the last offset, kernel longer than
// the input, single-sample input).
func TestConvolverMatchesNaive(t *testing.T) {
	src := NewNoiseSource(7)
	for _, tc := range []struct{ n, taps, span int }{
		{1, 1, 1},
		{3, 2, 9000},
		{100, 3, 50},
		{1000, 40, 700},
		{5000, 343, 50000},
		{257, 5, 1024},
	} {
		offs, gains := randomKernel(src, tc.taps, tc.span)
		offs[0] = tc.span - 1 // force the dense kernel to its full span
		x := make([]float64, tc.n)
		for i := range x {
			x[i] = src.Gaussian(1)
		}
		c := NewSparseConvolver(offs, gains)
		want := naiveConvolve(x, offs, gains, c.OutLen(tc.n))
		for name, got := range map[string][]float64{
			"direct": convolvePath(c, x, "direct"),
			"fft":    convolvePath(c, x, "fft"),
			"auto":   convolvePath(c, x, "auto"),
		} {
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("%s path n=%d taps=%d span=%d: sample %d off by %g",
						name, tc.n, tc.taps, tc.span, i, got[i]-want[i])
				}
			}
		}
	}
}

// TestConvolverAccumulates verifies ApplyTo adds into a pre-filled buffer
// (the channel layer relies on this to stack leakage onto backscatter).
func TestConvolverAccumulates(t *testing.T) {
	c := NewSparseConvolver([]int{0, 2}, []float64{1, 0.5})
	x := []float64{1, 2}
	out := make([]float64, c.OutLen(len(x)))
	for i := range out {
		out[i] = 10
	}
	c.ApplyTo(out, x)
	want := []float64{11, 12, 10.5, 11}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], want[i])
		}
	}
}

// TestConvolverEdgeCases covers empty inputs and degenerate kernels.
func TestConvolverEdgeCases(t *testing.T) {
	c := NewSparseConvolver([]int{5}, []float64{2})
	if got := convolvePath(c, nil, "auto"); len(got) != 0 {
		t.Errorf("empty input produced %v", got)
	}
	if c.OutLen(0) != 0 {
		t.Errorf("OutLen(0) = %d", c.OutLen(0))
	}
	if c.OutLen(10) != 15 {
		t.Errorf("OutLen(10) = %d, want 15", c.OutLen(10))
	}
	if c.Taps() != 1 || c.KernelLen() != 6 {
		t.Errorf("taps=%d kernLen=%d", c.Taps(), c.KernelLen())
	}
	empty := NewSparseConvolver(nil, nil)
	if got := convolvePath(empty, []float64{1, 2, 3}, "auto"); len(got) != 0 {
		t.Errorf("empty kernel produced %v", got)
	}
}

// TestConvolverPrime: Prime builds exactly the plan the matching ApplyTo
// uses — the primed call allocates no new plan and its output is unchanged —
// and degenerate or direct-path inputs are a no-op.
func TestConvolverPrime(t *testing.T) {
	src := NewNoiseSource(0x97)
	offs, gains := randomKernel(src, 200, 3000)
	n := 5000
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Gaussian(1)
	}

	plain := NewSparseConvolver(offs, gains)
	want := convolvePath(plain, x, "auto")

	primed := NewSparseConvolver(offs, gains)
	if !primed.fftFaster(n) {
		t.Fatalf("test shape (n=%d taps=%d) must route to the FFT path", n, len(offs))
	}
	primed.Prime(n)
	N, _ := primed.blockPlan(n)
	primed.mu.Lock()
	_, ok := primed.plans[N]
	primed.mu.Unlock()
	if !ok {
		t.Fatalf("Prime(%d) did not build the plan for N=%d", n, N)
	}
	plans := primed.Plans()

	got := convolvePath(primed, x, "auto")
	if len(got) != len(want) {
		t.Fatalf("primed output length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-9 {
			t.Fatalf("primed output diverges at %d by %g", i, d)
		}
	}
	if after := primed.Plans(); after != plans {
		t.Errorf("ApplyTo after Prime built %d extra plans; Prime must cover the call", after-plans)
	}

	// Degenerate inputs: no plan may appear, no panic.
	for _, bad := range []int{0, -3} {
		primed.Prime(bad)
	}
	tiny := NewSparseConvolver([]int{0, 1}, []float64{1, 1})
	tiny.Prime(8) // 2 taps on 8 samples: direct path wins, Prime is a no-op
	if got := tiny.Plans(); got != 0 {
		t.Errorf("direct-path Prime built %d plans", got)
	}
	empty := NewSparseConvolver(nil, nil)
	empty.Prime(100)
}

// TestConvolverPanicsOnBadKernel pins the constructor contract.
func TestConvolverPanicsOnBadKernel(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() { NewSparseConvolver([]int{1}, nil) })
	mustPanic("negative offset", func() { NewSparseConvolver([]int{-1}, []float64{1}) })
	mustPanic("short output", func() {
		c := NewSparseConvolver([]int{3}, []float64{1})
		c.ApplyTo(make([]float64, 2), []float64{1, 2})
	})
}

// TestConvolverScratchSharedConcurrent: convolvers of one padded length
// share its block scratch. Three links convolved one after another make
// one scratch for that length; convolved concurrently on a fan-out of two
// workers they give the serial outputs bit for bit and leave at most two,
// not one per convolver.
func TestConvolverScratchSharedConcurrent(t *testing.T) {
	src := NewNoiseSource(0x5c)
	const n = 6000
	convs := make([]*Convolver, 3)
	xs := make([][]float64, len(convs))
	want := make([][]float64, len(convs))
	for i := range convs {
		offs, gains := randomKernel(src, 400, 2500)
		offs[0] = 2499 // every kernel spans 2500 samples: one padded length
		convs[i] = NewSparseConvolver(offs, gains)
		xs[i] = make([]float64, n)
		for j := range xs[i] {
			xs[i][j] = src.Gaussian(1)
		}
		if !convs[i].fftFaster(n) {
			t.Fatalf("link %d must route to the FFT path", i)
		}
	}
	N, _ := convs[0].blockPlan(n)
	before := scratchList(N).Len()
	for i, c := range convs {
		if got, _ := c.blockPlan(n); got != N {
			t.Fatalf("link %d pads to %d, link 0 to %d", i, got, N)
		}
		want[i] = make([]float64, c.OutLen(n))
		c.ApplyTo(want[i], xs[i])
	}
	if serial := scratchList(N).Len(); serial != max(before, 1) {
		t.Fatalf("%d scratches of length %d after three links in turn (%d before), want %d", serial, N, before, max(before, 1))
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	got := make([][]float64, len(convs))
	conc.For(len(convs), func(i int) {
		got[i] = make([]float64, convs[i].OutLen(n))
		convs[i].ApplyTo(got[i], xs[i])
	})
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("link %d sample %d: concurrent %x, serial %x", i, j, got[i][j], want[i][j])
			}
		}
	}
	if after := scratchList(N).Len(); after > max(before, 2) {
		t.Errorf("%d scratches of length %d after three links on two workers (%d before), want at most 2", after, N, before)
	}
}

// gaussians returns n draws of N(0, 1).
func gaussians(src *NoiseSource, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Gaussian(1)
	}
	return x
}

// requireBitIdentical fails unless got and want hold the same float64 bits.
func requireBitIdentical(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d is %x, want %x", what, i, got[i], want[i])
		}
	}
}

// TestDirectKernelBitIdentical holds the output-blocked direct kernel to
// the tap-by-tap oracle over the merged taps, bit for bit: duplicate
// offsets, taps on the kernel's first and last sample, inputs shorter than
// the kernel, lengths off the block and group-of-four grid, a single tap,
// the clustered shape of a real link and accumulation onto a non-zero out.
func TestDirectKernelBitIdentical(t *testing.T) {
	src := NewNoiseSource(0xB10C)
	for _, tc := range []struct {
		name            string
		taps, span, n   int
		edges, prefills bool
	}{
		{"duplicates, dense span", 300, 100, 5000, false, false},
		{"duplicates, wide span", 120, 9000, 7000, false, false},
		{"taps at 0 and kernLen-1", 37, 4096, 3 * directBlock, true, false},
		{"input shorter than kernel", 64, 20000, 50, true, false},
		{"off the block grid", 4*9 + 3, 3000, 2*directBlock + 1, true, false},
		{"one sample", 10, 700, 1, true, false},
		{"single tap", 1, 1, 4097, false, false},
		{"single tap, late", 1, 6000, directBlock - 1, true, false},
		{"accumulates onto out", 91, 2500, 6001, true, true},
	} {
		offs, gains := randomKernel(src, tc.taps, tc.span)
		if tc.edges {
			offs[0], offs[len(offs)-1] = 0, tc.span-1
		}
		c := NewSparseConvolver(offs, gains)
		x := gaussians(src, tc.n)
		want := make([]float64, c.OutLen(tc.n))
		if tc.prefills {
			copy(want, gaussians(src, len(want)))
		}
		got := append([]float64(nil), want...)
		directOracle(c, want, x)
		c.applyDirect(got, x)
		requireBitIdentical(t, tc.name, got, want)
	}
	c := clusteredKernel(343, 51234)
	x := convBenchSignal(46000)
	want := make([]float64, c.OutLen(len(x)))
	got := make([]float64, len(want))
	directOracle(c, want, x)
	c.applyDirect(got, x)
	requireBitIdentical(t, "clustered link, 46,000-sample slot", got, want)
}

// TestSparseConvolverMergesCoincidentTaps: taps on one offset merge into
// one tap whose gain is their sum in list order, so the FFT path's output
// is bit-identical to that of the same kernel left unmerged — for taps in
// random order and for taps sorted by offset, as a channel's arrivals are.
func TestSparseConvolverMergesCoincidentTaps(t *testing.T) {
	src := NewNoiseSource(0x3E6)
	offs, gains := randomKernel(src, 200, 60)
	offs[0] = 59
	byOffset := make([]int, len(offs))
	for i := range byOffset {
		byOffset[i] = i
	}
	slices.SortStableFunc(byOffset, func(a, b int) int { return offs[a] - offs[b] })
	sortedOffs, sortedGains := make([]int, len(offs)), make([]float64, len(offs))
	for i, j := range byOffset {
		sortedOffs[i], sortedGains[i] = offs[j], gains[j]
	}
	distinct := map[int]bool{}
	for _, off := range offs {
		distinct[off] = true
	}
	x := gaussians(src, 3000)
	for name, k := range map[string]struct {
		offs  []int
		gains []float64
	}{"random order": {offs, gains}, "sorted": {sortedOffs, sortedGains}} {
		c := NewSparseConvolver(k.offs, k.gains)
		if c.Taps() != len(distinct) || c.KernelLen() != 60 {
			t.Fatalf("%s: %d taps on %d distinct offsets merged to %d taps, kernLen %d",
				name, len(k.offs), len(distinct), c.Taps(), c.KernelLen())
		}
		unmerged := &Convolver{offsets: k.offs, gains: k.gains, kernLen: 60, plans: make(map[int]*fftPlan)}
		requireBitIdentical(t, name+": merged FFT path", convolvePath(c, x, "fft"), convolvePath(unmerged, x, "fft"))
	}
}

// FuzzSparseConvolver draws offsets (duplicates included), gains and the
// input length, holds the direct path to the tap-by-tap oracle bit for bit
// (accumulating onto a non-zero out) and the FFT path to the direct path
// within 1e-9 of the output's magnitude bound.
func FuzzSparseConvolver(f *testing.F) {
	f.Add(uint16(1000), uint8(200), uint16(50), int64(1))
	f.Add(uint16(46), uint8(3), uint16(9000), int64(2))
	f.Add(uint16(4097), uint8(9), uint16(2048), int64(3))
	f.Fuzz(func(t *testing.T, n uint16, taps uint8, span uint16, seed int64) {
		src := NewNoiseSource(seed)
		offs, gains := randomKernel(src, 1+int(taps), 1+int(span)%10000)
		c := NewSparseConvolver(offs, gains)
		x := gaussians(src, 1+int(n)%6000)
		want := gaussians(src, c.OutLen(len(x)))
		got := append([]float64(nil), want...)
		directOracle(c, want, x)
		c.applyDirect(got, x)
		requireBitIdentical(t, "direct path", got, want)

		direct := convolvePath(c, x, "direct")
		fft := convolvePath(c, x, "fft")
		bound := 0.0
		for _, g := range c.gains {
			bound += math.Abs(g)
		}
		bound *= MaxAbs(x)
		for i := range direct {
			if d := math.Abs(fft[i] - direct[i]); d > 1e-9*bound {
				t.Fatalf("n=%d taps=%d: FFT diverges from direct at %d by %g (bound %g)", len(x), c.Taps(), i, d, bound)
			}
		}
	})
}
