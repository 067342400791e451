package dsp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// convolveNew convolves x into a fresh OutLen(len(x)) slice through ApplyTo.
func convolveNew(c *Convolver, x []float64) []float64 {
	out := make([]float64, c.OutLen(len(x)))
	c.ApplyTo(out, x)
	return out
}

// denseConvolve is the full linear convolution of x with the dense kernel
// h[offsets[t]] += gains[t], computed by the dense Convolve oracle. Convolve
// is commutative, so the shorter of the two runs as its kernel over the
// other, zero-extended by the kernel's length less one and shifted by its
// centre tap.
func denseConvolve(x []float64, offsets []int, gains []float64) []float64 {
	var h []float64
	for t, off := range offsets {
		if off >= len(h) {
			h = append(h, make([]float64, off+1-len(h))...)
		}
		h[off] += gains[t]
	}
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	sig, ker := h, x
	if len(h) < len(x) {
		sig, ker = x, h
	}
	mid := len(ker) / 2
	padded := make([]float64, len(sig)+len(ker)-1)
	copy(padded[mid:], sig)
	return Convolve(padded, ker)
}

// naiveConvolve is the O(n·taps) reference over the unmerged taps.
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
// blocked ApplyTo must equal it bit for bit.
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

// TestConvolverEquivalenceProperty drives 1000 seeded cases through the
// convolver across three signal families — impulse, tone, Gaussian noise —
// and requires it to equal the dense Convolve oracle within 1e-9
// everywhere.
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
		got := convolveNew(c, x)
		want := denseConvolve(x, offs, gains)
		if len(got) != len(want) || len(got) != c.OutLen(n) {
			t.Fatalf("case %d: length mismatch convolver=%d dense=%d want=%d",
				cse, len(got), len(want), c.OutLen(n))
		}
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("case %d (n=%d taps=%d span=%d): convolver diverges from the dense oracle at %d by %g",
					cse, n, taps, span, i, d)
			}
		}
	}
}

// TestConvolverMatchesNaive pins the convolver to the reference loop over
// the unmerged taps on a few deliberately awkward shapes (tap on the last
// offset, kernel longer than the input, single-sample input).
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
		got := convolveNew(c, x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d taps=%d span=%d: sample %d off by %g",
					tc.n, tc.taps, tc.span, i, got[i]-want[i])
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
	if got := convolveNew(c, nil); len(got) != 0 {
		t.Errorf("empty input produced %v", got)
	}
	if c.OutLen(0) != 0 {
		t.Errorf("OutLen(0) = %d", c.OutLen(0))
	}
	if c.OutLen(10) != 15 {
		t.Errorf("OutLen(10) = %d, want 15", c.OutLen(10))
	}
	if len(c.offsets) != 1 || c.kernLen != 6 {
		t.Errorf("taps=%d kernLen=%d", len(c.offsets), c.kernLen)
	}
	empty := NewSparseConvolver(nil, nil)
	if got := convolveNew(empty, []float64{1, 2, 3}); len(got) != 0 {
		t.Errorf("empty kernel produced %v", got)
	}
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

// TestConvolverScratchSharedConcurrent: a Convolver holds no scratch and
// no lock, so goroutines share one freely. Four workers on two Ps each
// convolve all three links, starting at different ones, and give the
// serial outputs bit for bit; the race build checks that ApplyTo writes
// nothing it shares.
func TestConvolverScratchSharedConcurrent(t *testing.T) {
	src := NewNoiseSource(0x5c)
	const n = 6000
	convs := make([]*Convolver, 3)
	xs := make([][]float64, len(convs))
	want := make([][]float64, len(convs))
	for i := range convs {
		offs, gains := randomKernel(src, 400, 2500)
		convs[i] = NewSparseConvolver(offs, gains)
		xs[i] = gaussians(src, n)
		want[i] = convolveNew(convs[i], xs[i])
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	const workers = 4
	got := make([][][]float64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		got[w] = make([][]float64, len(convs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range convs {
				i := (w + k) % len(convs)
				got[w][i] = convolveNew(convs[i], xs[i])
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i := range want {
			requireBitIdentical(t, fmt.Sprintf("worker %d, link %d", w, i), got[w][i], want[i])
		}
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
		c.ApplyTo(got, x)
		requireBitIdentical(t, tc.name, got, want)
	}
	// Real links' shapes: arrivals, distinct delays and kernel length of the
	// common wall at reflection order 3 over a 2 kbps round slot, of the
	// 15 cm block over a long block-sweep capture, and of the order-8
	// common-wall link under ecobench's round entries.
	for _, tc := range []struct {
		name                        string
		arrivals, distinct, span, n int
	}{
		{"common-wall link, 46,000-sample slot", 343, 85, 51234, 46000},
		{"15 cm block link, 92,000 samples", 343, 96, 366, 92000},
		{"order-8 common-wall link, 28,000 samples", 4901, 952, 117273, 28000},
	} {
		c := clusteredKernel(tc.arrivals, tc.distinct, tc.span)
		x := convBenchSignal(tc.n)
		want := make([]float64, c.OutLen(len(x)))
		got := make([]float64, len(want))
		directOracle(c, want, x)
		c.ApplyTo(got, x)
		requireBitIdentical(t, tc.name, got, want)
	}
}

// TestSparseConvolverMergesCoincidentTaps: taps on one offset merge into
// one tap, in order of each offset's first appearance, whose gain is their
// sum in list order from zero — bit for bit the dense kernel entry — for
// taps in random order and for taps sorted by offset, as a channel's
// arrivals are. The merged convolver matches the dense oracle within 1e-9.
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
		if len(c.offsets) != len(distinct) || c.kernLen != 60 {
			t.Fatalf("%s: %d taps on %d distinct offsets merged to %d taps, kernLen %d",
				name, len(k.offs), len(distinct), len(c.offsets), c.kernLen)
		}
		var first []int
		dense := make([]float64, 60)
		for t, off := range k.offs {
			if !slices.Contains(first, off) {
				first = append(first, off)
			}
			dense[off] += k.gains[t]
		}
		for i, off := range first {
			if c.offsets[i] != off || math.Float64bits(c.gains[i]) != math.Float64bits(dense[off]) {
				t.Fatalf("%s: merged tap %d is %g at %d, want %g at %d", name, i, c.gains[i], c.offsets[i], dense[off], off)
			}
		}
		got, want := convolveNew(c, x), denseConvolve(x, k.offs, k.gains)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("%s: sample %d off the dense oracle by %g", name, i, d)
			}
		}
	}
}

// FuzzSparseConvolver draws offsets (duplicates included), gains and the
// input length, holds the direct kernel to the tap-by-tap oracle bit for
// bit (accumulating onto a non-zero out) and ApplyTo to the dense Convolve
// oracle within 1e-9 of the output's magnitude bound.
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
		c.ApplyTo(got, x)
		requireBitIdentical(t, "direct kernel", got, want)

		got = convolveNew(c, x)
		want = denseConvolve(x, offs, gains)
		bound := 0.0
		for _, g := range c.gains {
			bound += math.Abs(g)
		}
		bound *= MaxAbs(x)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9*bound {
				t.Fatalf("n=%d taps=%d: convolver diverges from the dense oracle at %d by %g (bound %g)", len(x), len(c.offsets), i, d, bound)
			}
		}
	})
}
