package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"ecocapsule/internal/units"
)

// TestFIRFilterMatchesConvolve is the equivalence guard of the fast FIR
// path: over seeded random kernels and signal lengths spanning the direct
// and FFT regimes, FIRFilter.ApplyTo must match the reference Convolve within
// 1e-9 sample for sample.
func TestFIRFilterMatchesConvolve(t *testing.T) {
	for _, taps := range []int{1, 3, 21, 101} {
		for _, n := range []int{1, 2, 50, 513, 4000} {
			src := NewNoiseSource(int64(taps*10000 + n))
			h := make([]float64, taps)
			for i := range h {
				h[i] = src.Gaussian(1)
			}
			x := make([]float64, n)
			for i := range x {
				x[i] = src.Gaussian(1)
			}
			f := NewFIRFilter(h)
			got := make([]float64, n)
			f.ApplyTo(got, x)
			want := Convolve(x, h)
			if len(got) != len(want) {
				t.Fatalf("taps=%d n=%d: length %d vs %d", taps, n, len(got), len(want))
			}
			for i := range got {
				if d := math.Abs(got[i] - want[i]); d > 1e-9 {
					t.Fatalf("taps=%d n=%d sample %d: %g vs %g (|Δ|=%g)",
						taps, n, i, got[i], want[i], d)
				}
			}
		}
	}
}

// TestFIRFilterMatchesConvolveComplex covers the complex path against
// ConvolveComplex — the down-conversion low-pass the decode chain runs.
func TestFIRFilterMatchesConvolveComplex(t *testing.T) {
	for _, n := range []int{1, 64, 777, 5000} {
		src := NewNoiseSource(int64(n))
		h := FIRLowPass(1e6, 3000, 101)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(src.Gaussian(1), src.Gaussian(1))
		}
		f := NewFIRFilter(h)
		got := make([]complex128, n)
		f.ApplyComplexTo(got, x)
		want := ConvolveComplex(x, h)
		for i := range got {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("n=%d sample %d: %v vs %v (|Δ|=%g)", n, i, got[i], want[i], d)
			}
		}
	}
}

func TestFIRFilterEmptyInput(t *testing.T) {
	f := NewFIRFilter([]float64{1, 2, 1})
	// Empty input is a no-op even with no output buffer to write.
	f.ApplyTo(nil, nil)
	f.ApplyComplexTo(nil, nil)
}

func TestNewFIRFilterPanicsOnEmptyKernel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty kernel")
		}
	}()
	NewFIRFilter(nil)
}

// TestFIRFilterWarmZeroAlloc pins the warm complex filter pass — the
// dominant per-capture cost of the decode front-end — at zero steady-state
// allocations.
func TestFIRFilterWarmZeroAlloc(t *testing.T) {
	const n = 8000
	h := FIRLowPass(1e6, 3000, 101)
	f := NewFIRFilter(h)
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse; allocation counts are meaningless")
	}
	src := NewNoiseSource(4)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(src.Gaussian(1), src.Gaussian(1))
	}
	dst := make([]complex128, n)
	f.ApplyComplexTo(dst, x) // warm plan + scratch pools
	if allocs := testing.AllocsPerRun(20, func() {
		f.ApplyComplexTo(dst, x)
	}); allocs != 0 {
		t.Errorf("warm ApplyComplexTo allocated %.1f objects/op, want 0", allocs)
	}
}

// TestConvolverWarmZeroAlloc pins the warm overlap-add Transmit kernel at
// zero steady-state allocations (the block buffer used to be allocated per
// call).
func TestConvolverWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse; allocation counts are meaningless")
	}
	src := NewNoiseSource(11)
	offs := make([]int, 200)
	gains := make([]float64, 200)
	for i := range offs {
		offs[i] = i * 37
		gains[i] = src.Gaussian(1)
	}
	c := NewSparseConvolver(offs, gains)
	x := make([]float64, 20000)
	for i := range x {
		x[i] = src.Gaussian(1)
	}
	out := make([]float64, c.OutLen(len(x)))
	c.ApplyTo(out, x) // warm
	if allocs := testing.AllocsPerRun(10, func() {
		clear(out)
		c.ApplyTo(out, x)
	}); allocs != 0 {
		t.Errorf("warm Convolver.ApplyTo allocated %.1f objects/op, want 0", allocs)
	}
}

// TestMixDownMatchesReference checks the chunked-recurrence mixer against
// the literal per-sample Sincos mix of DownConvert.
func TestMixDownMatchesReference(t *testing.T) {
	const (
		fs = units.MHz
		fc = 229980.46875 // a realistic estimated-carrier bin value
		n  = 30000
	)
	src := NewNoiseSource(21)
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Gaussian(1)
	}
	got := make([]complex128, n)
	MixDown(got, x, fs, fc)
	w := 2 * math.Pi * fc / fs
	for i, v := range x {
		ph := w * float64(i)
		want := complex(v*math.Cos(ph), -v*math.Sin(ph))
		if d := cmplx.Abs(got[i] - want); d > 1e-9 {
			t.Fatalf("sample %d: %v vs %v (|Δ|=%g)", i, got[i], want, d)
		}
	}
}

// TestNextPow2Degenerate is the table-driven edge-case pin of NextPow2,
// including the degenerate and nonsensical inputs the plan caches must
// never turn into a zero or negative FFT length.
func TestNextPow2Degenerate(t *testing.T) {
	cases := []struct{ in, want int }{
		{-100, 1}, {-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{63, 64}, {64, 64}, {65, 128}, {1 << 20, 1 << 20}, {1<<20 + 1, 1 << 21},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestConvolverDegenerateInputs pins the plan-cache behaviour for the
// degenerate shapes: empty kernels, empty inputs and single samples must
// round-trip without panics and with correct output lengths.
func TestConvolverDegenerateInputs(t *testing.T) {
	empty := NewSparseConvolver(nil, nil)
	if got := empty.OutLen(100); got != 0 {
		t.Errorf("empty kernel OutLen(100) = %d, want 0", got)
	}
	if out := convolvePath(empty, []float64{1, 2, 3}, "auto"); len(out) != 0 {
		t.Errorf("empty kernel ApplyTo = %v", out)
	}

	single := NewSparseConvolver([]int{0}, []float64{2})
	if got := single.OutLen(0); got != 0 {
		t.Errorf("OutLen(0) = %d, want 0", got)
	}
	if out := convolvePath(single, nil, "auto"); len(out) != 0 {
		t.Errorf("ApplyTo(nil) = %v", out)
	}
	out := convolvePath(single, []float64{3}, "auto")
	if len(out) != 1 || math.Abs(out[0]-6) > 1e-12 {
		t.Errorf("single-tap ApplyTo([3]) = %v, want [6]", out)
	}
	// Force both paths on the n=1 input; they must agree.
	d := convolvePath(single, []float64{3}, "direct")
	f := convolvePath(single, []float64{3}, "fft")
	if math.Abs(d[0]-f[0]) > 1e-9 {
		t.Errorf("n=1 direct %g vs fft %g", d[0], f[0])
	}
}
