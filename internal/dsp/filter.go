package dsp

import "math"

// FIRLowPass designs a windowed-sinc low-pass FIR filter with cutoff fc
// (Hz) for sample rate fs and the given number of taps (forced odd). A
// Hamming window bounds the sidelobes.
//
//ecolint:unit fs hz
//ecolint:unit fc hz
func FIRLowPass(fs, fc float64, taps int) []float64 {
	if taps < 3 {
		taps = 3
	}
	if taps%2 == 0 {
		taps++
	}
	h := make([]float64, taps)
	mid := taps / 2
	wc := 2 * math.Pi * fc / fs
	var sum float64
	for i := range h {
		n := i - mid
		var v float64
		if n == 0 {
			v = wc / math.Pi
		} else {
			v = math.Sin(wc*float64(n)) / (math.Pi * float64(n))
		}
		// Hamming window.
		v *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1))
		h[i] = v
		sum += v
	}
	// Normalise to unity DC gain.
	for i := range h {
		h[i] /= sum
	}
	return h
}

// Convolve filters x with kernel h, returning a slice the same length as x
// (the kernel is centred, edges zero-padded).
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	y := make([]float64, len(x))
	mid := len(h) / 2
	for i := range x {
		var acc float64
		for k, hv := range h {
			j := i + mid - k
			if j >= 0 && j < len(x) {
				acc += hv * x[j]
			}
		}
		y[i] = acc
	}
	return y
}

// ConvolveComplex filters the complex signal x with real kernel h.
func ConvolveComplex(x []complex128, h []float64) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	y := make([]complex128, len(x))
	mid := len(h) / 2
	for i := range x {
		var acc complex128
		for k, hv := range h {
			j := i + mid - k
			if j >= 0 && j < len(x) {
				acc += complex(hv, 0) * x[j]
			}
		}
		y[i] = acc
	}
	return y
}

// DecimateComplex filters the complex signal x with real kernel h and keeps
// one output per block of d samples, at the block's centre: dst[k] is
// ConvolveComplex(x, h)[k·d + (d−1)/2] (same centring; x is zero-padded at
// both ends, so the centre of a last, partial block may lie past len(x))
// for k < ⌈len(x)/d⌉, and the kept outputs are all it computes. It returns
// dst resliced to the kept length; len(dst) must be at least that, and dst
// must not alias x. Allocation-free.
//
//ecolint:hotpath direct multiply-add over the kept outputs only
func DecimateComplex(dst, x []complex128, h []float64, d int) []complex128 {
	if d < 1 {
		panic("dsp: DecimateComplex factor must be positive")
	}
	n := len(x)
	m := (n + d - 1) / d
	if len(dst) < m {
		panic("dsp: DecimateComplex output buffer too short")
	}
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

// Envelope implements the node's passive envelope detector (§4.2: the
// voltage multiplier doubles as the detector): full-wave rectification
// followed by an RC-style low-pass with time constant tau seconds.
//
//ecolint:unit fs hz
//ecolint:unit tau s
func Envelope(x []float64, fs, tau float64) []float64 {
	y := make([]float64, len(x))
	if len(x) == 0 {
		return y
	}
	alpha := 1.0
	if tau > 0 && fs > 0 {
		alpha = 1 - math.Exp(-1/(fs*tau))
	}
	var state float64
	for i, v := range x {
		r := math.Abs(v)
		if r > state {
			// Diode charges the capacitor quickly.
			state = r
		} else {
			// Capacitor discharges through the load.
			state += alpha * (r - state) * 0.5
			state -= state * alpha
			if state < 0 {
				state = 0
			}
		}
		y[i] = state
	}
	return y
}

// DownConvert mixes the real pass-band signal x (sample rate fs) with a
// complex exponential at carrier fc and low-passes to the baseband
// bandwidth bw, implementing the reader's digital down-conversion (§5.1).
//
//ecolint:unit fs hz
//ecolint:unit fc hz
//ecolint:unit bw hz
func DownConvert(x []float64, fs, fc, bw float64) []complex128 {
	if len(x) == 0 {
		return nil
	}
	mixed := make([]complex128, len(x))
	w := 2 * math.Pi * fc / fs
	for i, v := range x {
		ph := w * float64(i)
		mixed[i] = complex(v*math.Cos(ph), -v*math.Sin(ph))
	}
	taps := 101
	h := FIRLowPass(fs, bw, taps)
	return ConvolveComplex(mixed, h)
}

// MixDown fills dst[i] = x[i]·e^{-i·2π·fc/fs·i} — the mixing stage of
// DownConvert without the low-pass — using a phase recurrence re-anchored
// with an exact Sincos every few hundred samples, so it matches the
// per-sample Sincos of the reference within ~1e-13 while running an order
// of magnitude faster. len(dst) must be >= len(x). Allocation-free.
//
//ecolint:unit fs hz
//ecolint:unit fc hz
func MixDown(dst []complex128, x []float64, fs, fc float64) {
	if len(x) == 0 {
		return
	}
	if len(dst) < len(x) {
		panic("dsp: MixDown output buffer too short")
	}
	w := 2 * math.Pi * fc / fs
	sw, cw := math.Sincos(-w)
	step := complex(cw, sw)
	// Re-anchor the oscillator on an exact Sincos each chunk: the chunked
	// recurrence drift stays below ~len(chunk)·ulp, far inside the 1e-9
	// equivalence budget.
	const chunk = 256
	for base := 0; base < len(x); base += chunk {
		end := base + chunk
		if end > len(x) {
			end = len(x)
		}
		s, c := math.Sincos(w * float64(base))
		osc := complex(c, -s)
		for i := base; i < end; i++ {
			dst[i] = complex(x[i], 0) * osc
			osc *= step
		}
	}
}

// Magnitude returns |x| element-wise.
func Magnitude(x []complex128) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Hypot(real(v), imag(v))
	}
	return y
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// RMS returns the root-mean-square of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// MaxAbs returns the maximum absolute value in x.
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
