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
// place, bins k and m-k together) equals the modulo-untangling radix-2
// version exactly.
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

// bandDFTOracle evaluates BandDFT's defining sum term by term with
// per-sample Sincos: dst[j] = Σ_t x[t]·e^{-2πi·kc·t/n}·e^{-2πi·j·⌊t/d⌋/M}.
// At d = 1 it is bin (kc+j) mod n of the zero-padded n-point DFT.
func bandDFTOracle(x []float64, n, kc, d int) []complex128 {
	m := n / d
	out := make([]complex128, m)
	for j := range out {
		var acc complex128
		for t, v := range x {
			ph := -2 * math.Pi * (float64(kc*t%n)/float64(n) + float64(j*(t/d)%m)/float64(m))
			acc += complex(v, 0) * cmplx.Exp(complex(0, ph))
		}
		out[j] = acc
	}
	return out
}

// TestBandDFTMatchesDefinition holds the zoom transform to its defining
// sum within 1e-9 of the capture's energy scale: every block factor from
// d = 1 (the full DFT rotated by kc) to d = n (one block, M = 1), centre
// bins at 0, inside and at the top of the grid, and captures shorter than
// n that end inside a block.
func TestBandDFTMatchesDefinition(t *testing.T) {
	src := NewNoiseSource(17)
	for _, n := range []int{1, 2, 64, 512} {
		for _, l := range []int{n, n/2 + 1, 3} {
			if l > n {
				continue
			}
			x := make([]float64, l)
			scale := 0.0
			for i := range x {
				x[i] = src.Gaussian(1)
				scale += math.Abs(x[i])
			}
			for d := 1; d <= n; d *= 2 {
				for _, kc := range []int{0, n / 3, n - 1} {
					want := bandDFTOracle(x, n, kc, d)
					got := make([]complex128, n/d)
					BandDFT(got, make([]complex128, d), x, n, kc, d)
					for j := range want {
						if diff := cmplx.Abs(got[j] - want[j]); diff > 1e-9*max(scale, 1) {
							t.Fatalf("n=%d len=%d d=%d kc=%d bin %d: %v vs %v (|Δ|=%g)", n, l, d, kc, j, got[j], want[j], diff)
						}
					}
				}
			}
		}
	}
}

// TestBandDFTBuildsNoFullPlan: the zoom transform of a short capture on a
// 2²² grid builds only its M-point FFT's plan, never one of the grid
// length, and a warm call allocates nothing.
func TestBandDFTBuildsNoFullPlan(t *testing.T) {
	const n, d = 1 << 22, 1024
	x := make([]float64, 3000)
	src := NewNoiseSource(5)
	for i := range x {
		x[i] = src.Gaussian(1)
	}
	dst, tab := make([]complex128, n/d), make([]complex128, d)
	BandDFT(dst, tab, x, n, n/5, d)
	rfftMu.Lock()
	_, full := rfftPlans[n]
	_, band := rfftPlans[2*n/d]
	rfftMu.Unlock()
	if full || !band {
		t.Errorf("after BandDFT: %d-point plan cached %v (want false), %d-point %v (want true)", n, full, 2*n/d, band)
	}
	if allocs := testing.AllocsPerRun(10, func() { BandDFT(dst, tab, x, n, n/5, d) }); allocs != 0 {
		t.Errorf("warm BandDFT allocated %.1f objects/op, want 0", allocs)
	}
}

func TestBandDFTPanicsOnBadArguments(t *testing.T) {
	x := make([]float64, 8)
	dst, tab := make([]complex128, 8), make([]complex128, 8)
	for name, call := range map[string]func(){
		"length not a power of two": func() { BandDFT(dst, tab, x, 12, 0, 1) },
		"factor not a power of two": func() { BandDFT(dst, tab, x, 8, 0, 3) },
		"factor past the length":    func() { BandDFT(dst, tab, x, 8, 0, 16) },
		"capture past the length":   func() { BandDFT(dst, tab, x, 4, 0, 1) },
		"short output":              func() { BandDFT(dst[:1], tab, x, 8, 0, 2) },
		"short root table":          func() { BandDFT(dst, tab[:1], x, 8, 0, 2) },
		"centre bin off the grid":   func() { BandDFT(dst, tab, x, 8, 8, 1) },
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

// TestBinMags3MatchesDFT holds the three interleaved Goertzel recurrences
// to the magnitudes of the zero-padded DFT's defining sum, at the grid's
// edges (bins −1..1 and n/2−1..n/2+1) and inside it, on captures shorter
// than n.
func TestBinMags3MatchesDFT(t *testing.T) {
	src := NewNoiseSource(23)
	for _, n := range []int{4, 64, 1024} {
		x := make([]float64, n-n/4+1)
		scale := 0.0
		for i := range x {
			x[i] = src.Gaussian(1)
			scale += math.Abs(x[i])
		}
		for _, k := range []int{0, 1, n / 5, n/2 - 1, n / 2} {
			got := [3]float64{}
			got[0], got[1], got[2] = BinMags3(x, n, k)
			for j, g := range got {
				want := cmplx.Abs(bandDFTOracle(x, n, (k-1+j+n)%n, n)[0])
				if math.Abs(g-want) > 1e-9*scale {
					t.Errorf("n=%d bin %d: %g, want %g", n, k-1+j, g, want)
				}
			}
		}
	}
}
