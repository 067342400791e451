// Package dsp is the signal-processing substrate of the EcoCapsule stack:
// FFT/spectrum analysis for the reader's decoder, FIR filtering and
// digital down-conversion (the MATLAB post-processing pipeline of §5.1),
// envelope detection (the node's demodulator), and deterministic noise
// generation for the channel simulator.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// fftTab is the in-place decimation-in-time FFT over a precomputed table of
// roots at twice its size (w[k] = e^{-2πik/(2·len(x))}, len(w) >= len(x)):
// the twiddle e^{-2πik/len(x)} is w[2k], the same float64, so an RFFT plan's
// untangling roots serve as its twiddles and no second table is kept.
// len(x) must be a power of two. It computes the radix-2 schedule — stages
// of length 2, 4, …, n, each butterfly multiplying by twiddle j·n/length —
// but fuses the stages in pairs: one radix-4 pass over each group of four
// elements applies stage L and stage 2L together, so the array is swept
// half as often. Every butterfly still takes the same table entry in the
// same stage order (the pair's −i factor stays the table's rounded entry,
// not an exact −i), so the output is bit-identical to the
// one-stage-per-pass loop (guarded by TestFFTTabBitIdentical). When log2 n
// is odd the last stage runs alone.
func fftTab(x []complex128, w []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	bitReverse(x)
	length := 2
	for ; 2*length <= n; length <<= 2 {
		// Stage `length` pairs (j, j+h) and (j+2h, j+3h) with twiddle
		// stride n/length; stage 2·length then pairs (j, j+2h) and
		// (j+h, j+3h) with half that stride. Strides into w are doubled.
		h := length / 2
		s1 := 2 * n / length
		s2 := s1 / 2
		for i := 0; i < n; i += 2 * length {
			q0 := x[i : i+h]
			q1 := x[i+h : i+2*h][:len(q0)]
			q2 := x[i+2*h : i+3*h][:len(q0)]
			q3 := x[i+3*h : i+4*h][:len(q0)]
			for j := range q0 {
				w1 := w[j*s1]
				v := q1[j] * w1
				b0, b1 := q0[j]+v, q0[j]-v
				v = q3[j] * w1
				b2, b3 := q2[j]+v, q2[j]-v
				v = b2 * w[j*s2]
				q0[j], q2[j] = b0+v, b0-v
				v = b3 * w[(j+h)*s2]
				q1[j], q3[j] = b1+v, b1-v
			}
		}
	}
	if length == n {
		// Odd log2 n: the final stage (one block, stride 1) runs alone.
		h := n / 2
		lo, hi := x[:h], x[h:]
		for j := range lo {
			v := hi[j] * w[2*j]
			lo[j], hi[j] = lo[j]+v, lo[j]-v
		}
	}
}

// bitReverse permutes x (power-of-two length) into bit-reversed index
// order. Write an index as a‖b‖c with a and c three bits each: it maps to
// rev(c)‖rev(b)‖rev(a), so the 64 indices sharing the middle bits b swap
// with the 64 sharing rev(b). Each such tile is eight runs of eight
// consecutive elements per side; swapping a tile pair at once fetches every
// cache line once, instead of once per element as a plain index sweep does
// on arrays beyond the cache.
func bitReverse(x []complex128) {
	n := len(x)
	lg := bits.TrailingZeros(uint(n))
	if lg < 6 {
		shift := 64 - uint(lg)
		for i := 1; i < n; i++ {
			if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
				x[i], x[j] = x[j], x[i]
			}
		}
		return
	}
	rev3 := [8]int{0, 4, 2, 6, 1, 5, 3, 7}
	top, mid := uint(lg-3), uint(64-(lg-6))
	for b := 0; b < n>>6; b++ {
		rb := int(bits.Reverse64(uint64(b)) >> mid)
		if rb < b {
			continue // swapped when b was rb
		}
		for a := 0; a < 8; a++ {
			for c := 0; c < 8; c++ {
				i := a<<top | b<<3 | c
				j := rev3[c]<<top | rb<<3 | rev3[a]
				if rb > b || i < j {
					x[i], x[j] = x[j], x[i]
				}
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n, and at least 1: the
// degenerate inputs n <= 1 (empty buffers, single samples, and any
// nonsensical negative length) all map to 1 rather than looping or
// overflowing, so plan caches always see a valid power-of-two key.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Spectrum computes the single-sided magnitude spectrum of the real signal
// x sampled at rate fs. It zero-pads x to the next power of two and returns
// parallel slices of frequencies (Hz) and linear magnitudes. The transform
// runs on the packed real-input FFT (half the butterfly work of a
// complex-embedded transform; equal within 1e-9, guarded by tests).
func Spectrum(x []float64, fs float64) (freqs, mags []float64) {
	if len(x) == 0 {
		return nil, nil
	}
	n := NextPow2(len(x))
	p := PlanRFFT(n)
	spec := make([]complex128, p.HalfLen())
	p.TransformPadded(spec, x)
	half := n/2 + 1
	freqs = make([]float64, half)
	mags = make([]float64, half)
	for i := 0; i < half; i++ {
		freqs[i] = float64(i) * fs / float64(n)
		mags[i] = cmplx.Abs(spec[i]) / float64(len(x))
		if i != 0 && i != n/2 {
			mags[i] *= 2 // fold the negative frequencies
		}
	}
	return freqs, mags
}

// BandDFT is a zoom transform: it evaluates the n-point spectrum of x
// (zero-padded to n) in the M = n/d bins around bin kc, through one
// M-point FFT instead of an n-point one. x is mixed down by kc with exact
// n-th roots of unity — a d-entry table e^{-2πi·kc·r/n} inside each block
// of d samples (built in tab, len(tab) >= d), times one M-th-root phasor
// per block — and each block is summed; dst[:M] receives the M-point FFT
// of the block sums, run on the roots of PlanRFFT(2M). So
//
//	dst[j mod M] = Σ_t x[t]·e^{-2πi·kc·t/n}·e^{-2πi·j·⌊t/d⌋/M},
//
// which is bin kc+j of the n-point DFT X up to the in-block phase
// e^{-2πi·j·(t mod d)/n}. For a tone at bin kc+j0 that is a common gain
// Σ_r e^{2πi·j0·r/n}, the same within ~1e-8 for every bin within a few
// of j0; it falls to 2/π at |j0| = M/2. Content at bin kc+j+q·M aliases
// onto j, attenuated by the block sum's null at every multiple of M: a
// caller that scans the bins |j| < M/4 sees an out-of-band tone at most
// ~1/3 as strong as an in-band one. At d = 1 it is the exact n-point DFT
// rotated by kc: dst[j] = X[(kc+j) mod n].
//
// n and d must be powers of two with d <= n, len(x) <= n, 0 <= kc < n
// and len(dst) >= M. Allocation-free once the plan is cached.
//
//ecolint:hotpath runs once per capture on the caller's buffers and a cached plan
func BandDFT(dst, tab []complex128, x []float64, n, kc, d int) {
	if n < 1 || n&(n-1) != 0 || d < 1 || d&(d-1) != 0 || d > n {
		panic("dsp: BandDFT lengths must be powers of two with d <= n")
	}
	m := n / d
	if len(x) > n || len(dst) < m || len(tab) < d || kc < 0 || kc >= n {
		panic("dsp: BandDFT buffer or bin out of range")
	}
	w := PlanRFFT(2 * m).wN // e^{-2πik/(2M)}, k = 0..M
	for r := range tab[:d] {
		s, c := math.Sincos(-2 * math.Pi * float64(kc*r%n) / float64(n))
		tab[r] = complex(c, s)
	}
	z := dst[:m]
	step, q := kc%m, 0 // block b's phasor is e^{-2πi·q/M}, q = kc·b mod M
	blocks := 0
	for base := 0; base < len(x); base += d {
		var re, im float64
		for r, v := range x[base:min(base+d, len(x))] {
			re += v * real(tab[r])
			im += v * imag(tab[r])
		}
		// e^{-2πi·q/M} is w[2q]; past half a turn, −w[2q−M].
		var ph complex128
		if 2*q <= m {
			ph = w[2*q]
		} else {
			ph = -w[2*q-m]
		}
		z[blocks] = complex(re, im) * ph
		blocks++
		if q += step; q >= m {
			q -= m
		}
	}
	clear(z[blocks:])
	fftTab(z, w)
}

// BinMags3 returns the magnitudes |X[k−1]|, |X[k]| and |X[k+1]| of the
// n-point DFT X of x zero-padded to n (len(x) <= n): three Goertzel
// recurrences interleaved in one pass over x, so the three cost about what
// one does. Each is exact up to rounding (~1e-10 relative over a few
// hundred thousand samples), where BandDFT's bins away from its centre
// carry aliased content. Allocation-free.
//
//ecolint:hotpath a single pass of scalar recurrences
func BinMags3(x []float64, n, k int) (below, at, above float64) {
	c0 := 2 * math.Cos(2*math.Pi*float64(k-1)/float64(n))
	c1 := 2 * math.Cos(2*math.Pi*float64(k)/float64(n))
	c2 := 2 * math.Cos(2*math.Pi*float64(k+1)/float64(n))
	var a1, a2, b1, b2, d1, d2 float64
	for _, v := range x {
		a1, a2 = v-a2+c0*a1, a1
		b1, b2 = v-b2+c1*b1, b1
		d1, d2 = v-d2+c2*d1, d1
	}
	return goertzelMag(a1, a2, c0), goertzelMag(b1, b2, c1), goertzelMag(d1, d2, c2)
}

// goertzelMag is the DFT magnitude left in a Goertzel recurrence's last two
// states s1, s2 with coefficient c = 2·cos ω.
func goertzelMag(s1, s2, c float64) float64 {
	return math.Sqrt(max(0, s1*s1+s2*s2-c*s1*s2))
}

// Goertzel evaluates the power of the real signal x at a single frequency f
// (Hz) for sample rate fs — the cheap single-bin DFT an envelope-detector
// MCU could afford. It returns the squared magnitude normalised by the
// window length.
func Goertzel(x []float64, fs, f float64) float64 {
	n := len(x)
	if n == 0 || fs <= 0 {
		return 0
	}
	w := 2 * math.Pi * f / fs
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	return power / float64(n*n) * 4
}

// PeakFrequency returns the frequency (Hz) of the strongest spectral bin of
// x within [fLo, fHi]; the reader uses this for carrier-frequency
// estimation before down-conversion (§5.1). Returns 0 for empty input.
func PeakFrequency(x []float64, fs, fLo, fHi float64) float64 {
	freqs, mags := Spectrum(x, fs)
	best, bestMag := 0.0, -1.0
	for i, f := range freqs {
		if f < fLo || f > fHi {
			continue
		}
		if mags[i] > bestMag {
			best, bestMag = f, mags[i]
		}
	}
	return best
}
