package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

// rfftLengths covers every power of two the stack uses, including the
// degenerate 1 and 2.
var rfftLengths = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 8192}

// TestRFFTMatchesFFTPropertyBattery is the seeded randomized equivalence
// battery of the fast real-input path: over 200 cases across all supported
// power-of-two lengths, the packed half-spectrum must match the
// complex-embedded FFT bin for bin within 1e-9.
func TestRFFTMatchesFFTPropertyBattery(t *testing.T) {
	const casesPerLength = 20 // 13 lengths × 20 = 260 cases
	cases := 0
	for _, n := range rfftLengths {
		for rep := 0; rep < casesPerLength; rep++ {
			seed := int64(1000*n + rep)
			src := NewNoiseSource(seed)
			x := make([]float64, n)
			for i := range x {
				x[i] = src.Gaussian(1)
			}

			// Reference: full complex FFT of the embedded real signal.
			ref := make([]complex128, n)
			for i, v := range x {
				ref[i] = complex(v, 0)
			}
			FFT(ref)

			p := PlanRFFT(n)
			if p.HalfLen() != n/2+1 {
				t.Fatalf("n=%d: plan packs %d bins, want %d", n, p.HalfLen(), n/2+1)
			}
			spec := make([]complex128, p.HalfLen())
			p.Transform(spec, x)
			for k := range spec {
				if d := cmplx.Abs(spec[k] - ref[k]); d > 1e-9 {
					t.Fatalf("n=%d seed=%d bin %d: RFFT %v vs FFT %v (|Δ|=%g)",
						n, seed, k, spec[k], ref[k], d)
				}
			}
			cases++
		}
	}
	if cases < 200 {
		t.Fatalf("battery ran only %d cases, want >= 200", cases)
	}
}

func TestRFFTDegenerateLengths(t *testing.T) {
	// n = 1: the single bin is the sample.
	p := PlanRFFT(1)
	spec := make([]complex128, p.HalfLen())
	p.Transform(spec, []float64{3.5})
	if len(spec) != 1 || spec[0] != complex(3.5, 0) {
		t.Errorf("Transform([3.5]) = %v", spec)
	}
	// n = 2: DC and Nyquist bins.
	p = PlanRFFT(2)
	spec = make([]complex128, p.HalfLen())
	p.Transform(spec, []float64{1, 2})
	if len(spec) != 2 {
		t.Fatalf("n=2 plan packs %d bins", len(spec))
	}
	if cmplx.Abs(spec[0]-3) > 1e-12 || cmplx.Abs(spec[1]-(-1)) > 1e-12 {
		t.Errorf("Transform([1,2]) = %v, want [3, -1]", spec)
	}
}

// TestRFFTPanicsOnNonPow2: a 12-sample signal has no plan, and the
// 16-point plan rejects it rather than transforming a truncated or
// overrun buffer.
func TestRFFTPanicsOnNonPow2(t *testing.T) {
	x := make([]float64, 12)
	spec := make([]complex128, 9)
	for name, f := range map[string]func(){
		"PlanRFFT(12)":       func() { PlanRFFT(12) },
		"16-point Transform": func() { PlanRFFT(16).Transform(spec, x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for a 12-sample signal", name)
				}
			}()
			f()
		}()
	}
}

// TestRFFTTransformPaddedBitIdentical: the zero-extending transform of a
// short signal equals Transform of an explicitly zero-padded copy on IEEE
// bits, at odd and even signal lengths from empty to the plan length, and
// rejects a signal longer than the plan.
func TestRFFTTransformPaddedBitIdentical(t *testing.T) {
	for _, n := range rfftLengths {
		p := PlanRFFT(n)
		src := NewNoiseSource(int64(7 * n))
		full := make([]float64, n)
		for i := range full {
			full[i] = src.Gaussian(1)
		}
		for _, l := range []int{0, 1, n / 2, n/2 + 1, n - 1, n} {
			if l < 0 || l > n {
				continue
			}
			padded := make([]float64, n)
			copy(padded, full[:l])
			want := make([]complex128, p.HalfLen())
			p.Transform(want, padded)
			got := make([]complex128, p.HalfLen())
			for i := range got {
				got[i] = complex(math.NaN(), 1) // stale contents must not leak in
			}
			p.TransformPadded(got, full[:l])
			for k := range want {
				if !sameBits(got[k], want[k]) {
					t.Fatalf("n=%d len(x)=%d bin %d: padded %v, Transform of a padded copy %v", n, l, k, got[k], want[k])
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d: TransformPadded of %d samples must panic", n, n+1)
				}
			}()
			p.TransformPadded(make([]complex128, p.HalfLen()), make([]float64, n+1))
		}()
	}
}

func TestPlanRFFTPanicsOnBadLength(t *testing.T) {
	for _, n := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PlanRFFT(%d): expected panic", n)
				}
			}()
			PlanRFFT(n)
		}()
	}
}

// TestRFFTPlanTransformZeroAlloc pins the transform of a built plan at
// zero allocations — the property the decode hot path's per-op
// cost budget depends on. A plan keeps no scratch, so there is nothing to
// warm, and the race build runs it too.
func TestRFFTPlanTransformZeroAlloc(t *testing.T) {
	const n = 1024
	p := PlanRFFT(n)
	src := NewNoiseSource(9)
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Gaussian(1)
	}
	spec := make([]complex128, p.HalfLen())
	if allocs := testing.AllocsPerRun(50, func() {
		p.Transform(spec, x)
	}); allocs != 0 {
		t.Errorf("warm RFFT transform allocated %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkRFFTvsFFT(b *testing.B) {
	const n = 32768
	src := NewNoiseSource(3)
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Gaussian(1)
	}
	b.Run("rfft", func(b *testing.B) {
		p := PlanRFFT(n)
		spec := make([]complex128, p.HalfLen())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Transform(spec, x)
		}
	})
	b.Run("fft", func(b *testing.B) {
		buf := make([]complex128, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, v := range x {
				buf[j] = complex(v, 0)
			}
			FFT(buf)
		}
	})
}
