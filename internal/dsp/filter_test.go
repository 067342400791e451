package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"ecocapsule/internal/units"
)

// TestDecimateComplexMatchesConvolveComplex is the equivalence guard of the
// decimating low-pass: over random complex signals, the down-conversion
// kernel and decimation factors from 1 (every output) past the kernel
// length, each kept output must match the reference ConvolveComplex of the
// zero-padded signal at its block centre within 1e-9.
func TestDecimateComplexMatchesConvolveComplex(t *testing.T) {
	h := FIRLowPass(units.MHz, 4500, 101)
	for _, n := range []int{1, 64, 777, 5000} {
		src := NewNoiseSource(int64(n))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(src.Gaussian(1), src.Gaussian(1))
		}
		for _, d := range []int{1, 2, 7, 31, 46, 150} {
			m := (n + d - 1) / d
			// The centre of a last, partial block may lie past n: pad x.
			want := ConvolveComplex(append(append([]complex128(nil), x...), make([]complex128, m*d-n)...), h)
			got := DecimateComplex(make([]complex128, n), x, h, d)
			if len(got) != m {
				t.Fatalf("n=%d d=%d: %d kept outputs, want %d", n, d, len(got), m)
			}
			for k := range got {
				i := k*d + (d-1)/2
				if diff := cmplx.Abs(got[k] - want[i]); diff > 1e-9 {
					t.Fatalf("n=%d d=%d kept %d: %v vs %v (|Δ|=%g)", n, d, k, got[k], want[i], diff)
				}
			}
		}
	}
}

func TestDecimateComplexEmptyInput(t *testing.T) {
	// Empty input is a no-op even with no output buffer to write.
	if got := DecimateComplex(nil, nil, []float64{1, 2, 1}, 4); len(got) != 0 {
		t.Errorf("empty input gave %d outputs", len(got))
	}
}

func TestDecimateComplexPanicsOnBadArguments(t *testing.T) {
	x := make([]complex128, 4)
	for name, call := range map[string]func(){
		"zero factor":  func() { DecimateComplex(make([]complex128, 4), x, []float64{1}, 0) },
		"short output": func() { DecimateComplex(make([]complex128, 1), x, []float64{1}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			call()
		}()
	}
}

// TestDecimateComplexZeroAlloc pins the decimating low-pass — the receive
// front end's filter — at zero allocations.
func TestDecimateComplexZeroAlloc(t *testing.T) {
	const n = 8000
	h := FIRLowPass(units.MHz, 3000, 101)
	src := NewNoiseSource(4)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(src.Gaussian(1), src.Gaussian(1))
	}
	dst := make([]complex128, n)
	if allocs := testing.AllocsPerRun(20, func() {
		DecimateComplex(dst, x, h, 31)
	}); allocs != 0 {
		t.Errorf("DecimateComplex allocated %.1f objects/op, want 0", allocs)
	}
}

// TestConvolverWarmZeroAlloc pins the warm overlap-add Transmit kernel at
// zero steady-state allocations (the block buffer used to be allocated per
// call).
func TestConvolverWarmZeroAlloc(t *testing.T) {
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
