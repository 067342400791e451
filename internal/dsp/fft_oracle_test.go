package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

// Test-only oracles. FFT/IFFT are the textbook recurrence transforms the
// property tests check the production kernels against within tolerance;
// fftTabRadix2 and the modulo-untangling RFFT are the exact one-stage-per-
// pass schedule that fftTab and RFFTPlan must reproduce bit for bit.

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x, with twiddles from a sin/cos recurrence. len(x) must be a
// power of two; it panics otherwise.
func FFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("dsp: FFT length must be a power of two")
	}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		wl := cmplx.Rect(1, -2*math.Pi/float64(length))
		half := length / 2
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// IFFT computes the inverse FFT in place (normalised by 1/N).
func IFFT(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	FFT(x)
	inv := complex(1/float64(n), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * inv
	}
}

// complexTwiddles is the size-n complex FFT's own twiddle table,
// tw[k] = e^{-2πik/n} for k < n/2, computed at that size: the table fftTab
// reads at stride 2 from an RFFT plan's roots must equal it bit for bit.
func complexTwiddles(n int) []complex128 {
	tw := make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	return tw
}

// fftTabRadix2 is the table-driven radix-2 DIT FFT with one pass per stage
// and an incremental bit-reversal: the schedule fftTab fuses.
func fftTabRadix2(x []complex128, tw []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		step := n / length
		for i := 0; i < n; i += length {
			for j := 0; j < half; j++ {
				w := tw[j*step]
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
			}
		}
	}
}

// rfftModulo is RFFTPlan.Transform on the radix-2 oracle, untangling every
// bin k = 0..m in one loop with indices reduced mod m.
func rfftModulo(p *RFFTPlan, spec []complex128, x []float64) {
	if p.m == 0 {
		spec[0] = complex(x[0], 0)
		return
	}
	m := p.m
	z := make([]complex128, m)
	for j := range z {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	fftTabRadix2(z, complexTwiddles(m))
	for k := 0; k <= m; k++ {
		zk := z[k%m]
		zr := cconj(z[(m-k)%m])
		even := (zk + zr) * 0.5
		odd := mulNegI(zk-zr) * 0.5
		spec[k] = even + p.wN[k]*odd
	}
}

// irfftRadix2 is RFFTPlan.Inverse on the radix-2 oracle.
func irfftRadix2(p *RFFTPlan, y []float64, spec []complex128) {
	if p.m == 0 {
		y[0] = real(spec[0])
		return
	}
	m := p.m
	z := make([]complex128, m)
	for k := range z {
		yk := spec[k]
		ykm := cconj(spec[m-k])
		even := (yk + ykm) * 0.5
		odd := (yk - ykm) * 0.5 * cconj(p.wN[k])
		z[k] = even + mulI(odd)
	}
	for i := range z {
		z[i] = cconj(z[i])
	}
	fftTabRadix2(z, complexTwiddles(m))
	inv := 1 / float64(m)
	for i := range z {
		z[i] = complex(real(z[i])*inv, -imag(z[i])*inv)
	}
	for j := 0; j < m; j++ {
		y[2*j] = real(z[j])
		y[2*j+1] = imag(z[j])
	}
}

// sameBits reports whether a and b have identical IEEE-754 encodings, which
// is stricter than ==: it also tells -0 from +0 and matches NaN payloads.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestFFTTabBitIdentical: the fused-pass kernel, reading its twiddles at
// stride 2 from the roots of the RFFT plan it serves, reproduces the
// radix-2 schedule on the size-n complex table bit for bit at every length
// 2¹…2¹⁸, odd and even log2 alike, on noise and on inputs with exact zeros
// and signed zeros.
func TestFFTTabBitIdentical(t *testing.T) {
	for lg := 1; lg <= 18; lg++ {
		n := 1 << lg
		w := newRFFTPlan(2 * n).wN // the plan whose packed transform is size n
		tw := complexTwiddles(n)
		src := NewNoiseSource(int64(lg))
		inputs := map[string][]complex128{
			"noise":  make([]complex128, n),
			"sparse": make([]complex128, n),
		}
		for i := range inputs["noise"] {
			inputs["noise"][i] = complex(src.Gaussian(1), src.Gaussian(1))
		}
		sparse := inputs["sparse"]
		sparse[0] = complex(math.Copysign(0, -1), 1)
		sparse[n-1] = complex(-2.5, math.Copysign(0, -1))
		for name, in := range inputs {
			got := append([]complex128(nil), in...)
			want := append([]complex128(nil), in...)
			fftTab(got, w)
			fftTabRadix2(want, tw)
			for k := range got {
				if !sameBits(got[k], want[k]) {
					t.Fatalf("n=2^%d %s bin %d: fused %v, radix-2 %v", lg, name, k, got[k], want[k])
				}
			}
		}
	}
}

// TestRFFTPlanBitIdentical: Transform (packed, transformed and untangled in
// place, bins k and m-k together) and Inverse equal the modulo-untangling
// radix-2 versions exactly. Inverse overwrites the spectrum it reads, so it
// gets a copy.
func TestRFFTPlanBitIdentical(t *testing.T) {
	for lg := 0; lg <= 16; lg++ {
		n := 1 << lg
		p := PlanRFFT(n)
		src := NewNoiseSource(int64(100 + lg))
		x := make([]float64, n)
		for i := range x {
			x[i] = src.Gaussian(1)
		}
		got := make([]complex128, p.HalfLen())
		want := make([]complex128, p.HalfLen())
		p.Transform(got, x)
		rfftModulo(p, want, x)
		for k := range got {
			if !sameBits(got[k], want[k]) {
				t.Fatalf("n=%d Transform bin %d: %v, modulo version %v", n, k, got[k], want[k])
			}
		}
		y := make([]float64, n)
		yWant := make([]float64, n)
		p.Inverse(y, append([]complex128(nil), got...))
		irfftRadix2(p, yWant, got)
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(yWant[i]) {
				t.Fatalf("n=%d Inverse sample %d: %g, radix-2 version %g", n, i, y[i], yWant[i])
			}
		}
	}
}

// BenchmarkFFTTab times the fused-pass kernel against the radix-2 oracle at
// the 2^18-point complex size of a round-length RFFT.
func BenchmarkFFTTab(b *testing.B) {
	const n = 1 << 18
	w := newRFFTPlan(2 * n).wN
	tw := complexTwiddles(n)
	src := NewNoiseSource(5)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(src.Gaussian(1), src.Gaussian(1))
	}
	buf := make([]complex128, n)
	for _, k := range []struct {
		name  string
		fft   func([]complex128, []complex128)
		table []complex128
	}{{"fused", fftTab, w}, {"radix2", fftTabRadix2, tw}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, x)
				k.fft(buf, k.table)
			}
		})
	}
}
