package dsp

import (
	"math"
	"testing"
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
	if _, ok := primed.plans[N]; !ok {
		t.Fatalf("Prime(%d) did not build the plan for N=%d", n, N)
	}
	plans := len(primed.plans)
	primed.mu.Unlock()

	got := convolvePath(primed, x, "auto")
	if len(got) != len(want) {
		t.Fatalf("primed output length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-9 {
			t.Fatalf("primed output diverges at %d by %g", i, d)
		}
	}
	primed.mu.Lock()
	after := len(primed.plans)
	primed.mu.Unlock()
	if after != plans {
		t.Errorf("ApplyTo after Prime built %d extra plans; Prime must cover the call", after-plans)
	}

	// Degenerate inputs: no plan may appear, no panic.
	for _, bad := range []int{0, -3} {
		primed.Prime(bad)
	}
	tiny := NewSparseConvolver([]int{0, 1}, []float64{1, 1})
	tiny.Prime(8) // 2 taps on 8 samples: direct path wins, Prime is a no-op
	tiny.mu.Lock()
	if len(tiny.plans) != 0 {
		t.Errorf("direct-path Prime built %d plans", len(tiny.plans))
	}
	tiny.mu.Unlock()
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
