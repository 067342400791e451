package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"ecocapsule/internal/units"
)

// DecimateComplex filters the complex signal x with real kernel h and keeps
// one output per block of d samples, at the block's centre: dst[k] is
// ConvolveComplex(x, h)[k·d + (d−1)/2] (same centring; x is zero-padded at
// both ends, so the centre of a last, partial block may lie past len(x))
// for k < ⌈len(x)/d⌉, and the kept outputs are all it computes. It returns
// dst resliced to the kept length. It is the oracle of MixDecimate, which
// must equal it on the full-rate mixed signal bit for bit.
func DecimateComplex(dst, x []complex128, h []float64, d int) []complex128 {
	n := len(x)
	m := (n + d - 1) / d
	mid := len(h) / 2
	for k := range dst[:m] {
		// Output i sees h[t]·x[i+mid−t]; clip t to the in-range inputs.
		i := k*d + (d-1)/2
		tLo, tHi := max(0, i+mid-n+1), min(len(h), i+mid+1)
		var re, im float64
		for t := tLo; t < tHi; t++ {
			v := x[i+mid-t]
			re += h[t] * real(v)
			im += h[t] * imag(v)
		}
		dst[k] = complex(re, im)
	}
	return dst[:m]
}

// TestDecimateComplexMatchesConvolveComplex pins the decimating oracle:
// over random complex signals, the down-conversion kernel and decimation
// factors from 1 (every output) past the kernel length, each kept output
// must match the reference ConvolveComplex of the zero-padded signal at its
// block centre within 1e-9.
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

// mixDownOracle is MixDown one chunk at a time: each chunk re-anchors the
// oscillator on an exact Sincos, and each sample is the full complex
// product complex(v, 0)·osc. MixDown must equal it bit for bit.
func mixDownOracle(x []float64, fs, fc float64) []complex128 {
	dst := make([]complex128, len(x))
	w := 2 * math.Pi * fc / fs
	step := mixStep(w)
	for base := 0; base < len(x); base += mixChunk {
		s, c := math.Sincos(w * float64(base))
		osc := complex(c, -s)
		for i := base; i < min(base+mixChunk, len(x)); i++ {
			dst[i] = complex(x[i], 0) * osc
			osc *= step
		}
	}
	return dst
}

// mixDecimateOracle is MixDecimate the long way: the chunked mix into a
// full-rate buffer, then the decimating oracle over it.
func mixDecimateOracle(x []float64, fs, fc float64, h []float64, d int) []complex128 {
	return DecimateComplex(make([]complex128, len(x)), mixDownOracle(x, fs, fc), h, d)
}

// TestMixDownBitIdentical holds MixDown, whose whole chunks run two at a
// time from two products per sample, to the one-chunk-at-a-time complex
// product bit for bit: lengths off every chunk boundary and odd and even
// chunk counts, and inputs holding ±0, subnormals and huge values, where
// a dropped zero product could flip the sign of a zero.
func TestMixDownBitIdentical(t *testing.T) {
	const fs = units.MHz
	src := NewNoiseSource(17)
	for _, n := range []int{1, 255, 256, 257, 512, 3*256 + 5, 4096, 20011} {
		x := make([]float64, n)
		for i := range x {
			switch i % 7 {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.Copysign(0, -1)
			case 2:
				x[i] = 5e-324 * float64(1+i%3)
			case 3:
				x[i] = -1e300
			default:
				x[i] = src.Gaussian(1)
			}
		}
		for _, fc := range []float64{229980.46875, 1e3, 0, -5e4} {
			want := mixDownOracle(x, fs, fc)
			got := make([]complex128, n)
			MixDown(got, x, fs, fc)
			if k := firstDiff(got, want); k >= 0 {
				t.Fatalf("n=%d fc=%g: sample %d is %v, want %v", n, fc, k, got[k], want[k])
			}
		}
	}
}

// firstDiff is the first kept output where got and want differ in any bit
// (sameBits), or -1.
func firstDiff(got, want []complex128) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for k := range got {
		if !sameBits(got[k], want[k]) {
			return k
		}
	}
	return -1
}

// TestMixDecimateBitIdentical holds the fused front-end kernel to the
// chunked mix (mixDownOracle) followed by the decimating oracle bit for
// bit: capture lengths off every chunk and block boundary, D = 1 through
// past the kernel length, captures shorter than the kernel, and window
// buffers from the minimum (refilled every few outputs) to longer than the
// capture.
func TestMixDecimateBitIdentical(t *testing.T) {
	const fs = units.MHz
	src := NewNoiseSource(31)
	for _, taps := range []int{101, 9} {
		h := FIRLowPass(fs, 4500, taps)
		for _, n := range []int{1, 50, 100, 255, 257, 1000, 4099, 31*256 + 17, 20011} {
			x := make([]float64, n)
			for i := range x {
				x[i] = src.Gaussian(1)
			}
			for _, d := range []int{1, 2, 8, 31, 46, 150} {
				fc := 229980.46875 + 1e3*src.Gaussian(1)
				want := mixDecimateOracle(x, fs, fc, h, d)
				for _, segLen := range []int{len(h) + 2*mixChunk, 4096, n + 3*mixChunk} {
					seg := make([]complex128, max(segLen, len(h)+2*mixChunk))
					got := MixDecimate(make([]complex128, (n+d-1)/d), seg, x, fs, fc, h, d)
					if k := firstDiff(got, want); k >= 0 {
						t.Fatalf("taps=%d n=%d d=%d seg=%d: kept output %d differs (%d vs %d outputs)",
							taps, n, d, len(seg), k, len(got), len(want))
					}
				}
			}
		}
	}
}

// FuzzMixDecimate draws the capture length, D, the carrier, the kernel and
// the window length, and holds MixDecimate to the oracle bit for bit.
func FuzzMixDecimate(f *testing.F) {
	f.Add(uint16(1000), uint8(31), 229980.5, uint8(101), uint16(0), int64(1))
	f.Add(uint16(40), uint8(150), 1e3, uint8(3), uint16(700), int64(2))
	f.Add(uint16(4097), uint8(1), -5e4, uint8(64), uint16(5000), int64(3))
	f.Fuzz(func(t *testing.T, n uint16, d uint8, fc float64, taps uint8, extra uint16, seed int64) {
		if d == 0 || math.IsNaN(fc) || math.IsInf(fc, 0) || math.Abs(fc) > units.MHz {
			t.Skip()
		}
		src := NewNoiseSource(seed)
		x := make([]float64, int(n)%8192)
		for i := range x {
			x[i] = src.Gaussian(1)
		}
		h := make([]float64, int(taps)%160)
		for i := range h {
			h[i] = src.Gaussian(1)
		}
		want := mixDecimateOracle(x, units.MHz, fc, h, int(d))
		seg := make([]complex128, len(h)+2*mixChunk+int(extra)%8192)
		got := MixDecimate(make([]complex128, (len(x)+int(d)-1)/int(d)), seg, x, units.MHz, fc, h, int(d))
		if k := firstDiff(got, want); k >= 0 {
			t.Fatalf("n=%d d=%d taps=%d seg=%d: kept output %d differs", len(x), d, len(h), len(seg), k)
		}
	})
}

func TestMixDecimateEmptyInput(t *testing.T) {
	// Empty input is a no-op even with no output or window buffer.
	if got := MixDecimate(nil, nil, nil, units.MHz, units.KHz, []float64{1, 2, 1}, 4); len(got) != 0 {
		t.Errorf("empty input gave %d outputs", len(got))
	}
}

func TestMixDecimatePanicsOnBadArguments(t *testing.T) {
	x := make([]float64, 4)
	h := []float64{1}
	seg := make([]complex128, len(h)+2*mixChunk)
	for name, call := range map[string]func(){
		"zero factor":  func() { MixDecimate(make([]complex128, 4), seg, x, units.MHz, units.KHz, h, 0) },
		"short output": func() { MixDecimate(make([]complex128, 1), seg, x, units.MHz, units.KHz, h, 2) },
		"short window": func() { MixDecimate(make([]complex128, 4), seg[:len(seg)-1], x, units.MHz, units.KHz, h, 1) },
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

// TestMixDecimateZeroAlloc pins the fused mix and decimating low-pass — the
// receive front end's down-conversion — at zero allocations.
func TestMixDecimateZeroAlloc(t *testing.T) {
	const n = 8000
	h := FIRLowPass(units.MHz, 3000, 101)
	src := NewNoiseSource(4)
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Gaussian(1)
	}
	dst := make([]complex128, n)
	seg := make([]complex128, 4096)
	if allocs := testing.AllocsPerRun(20, func() {
		MixDecimate(dst, seg, x, units.MHz, 229e3, h, 31)
	}); allocs != 0 {
		t.Errorf("MixDecimate allocated %.1f objects/op, want 0", allocs)
	}
}

// TestConvolverWarmZeroAlloc pins the Transmit kernel at zero steady-state
// allocations.
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

// TestConvolverDegenerateInputs pins the degenerate shapes: empty kernels,
// empty inputs and single samples must round-trip without panics and with
// correct output lengths.
func TestConvolverDegenerateInputs(t *testing.T) {
	empty := NewSparseConvolver(nil, nil)
	if got := empty.OutLen(100); got != 0 {
		t.Errorf("empty kernel OutLen(100) = %d, want 0", got)
	}
	if out := convolveNew(empty, []float64{1, 2, 3}); len(out) != 0 {
		t.Errorf("empty kernel ApplyTo = %v", out)
	}

	single := NewSparseConvolver([]int{0}, []float64{2})
	if got := single.OutLen(0); got != 0 {
		t.Errorf("OutLen(0) = %d, want 0", got)
	}
	if out := convolveNew(single, nil); len(out) != 0 {
		t.Errorf("ApplyTo(nil) = %v", out)
	}
	out := convolveNew(single, []float64{3})
	if len(out) != 1 || math.Abs(out[0]-6) > 1e-12 {
		t.Errorf("single-tap ApplyTo([3]) = %v, want [6]", out)
	}
	if want := denseConvolve([]float64{3}, []int{0}, []float64{2}); math.Abs(out[0]-want[0]) > 1e-9 {
		t.Errorf("n=1 convolver %g vs dense oracle %g", out[0], want[0])
	}
}
