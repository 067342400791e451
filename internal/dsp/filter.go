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

// mixChunk is the oscillator re-anchoring period of MixDown and
// MixDecimate, in samples.
const mixChunk = 256

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
	mixChunks(dst, x, w, mixStep(w), 0, len(x))
}

// mixStep is the per-sample oscillator rotation e^{-iw}.
func mixStep(w float64) complex128 {
	sw, cw := math.Sincos(-w)
	return complex(cw, sw)
}

// mixChunks fills dst[i-from] = x[i]·e^{-iwi} for i in [from, to). from
// must be a multiple of mixChunk and to one or len(x), so every chunk
// re-anchors on the same exact Sincos and runs the same recurrence
// whichever caller mixes it: the chunked recurrence drift stays below
// ~mixChunk·ulp, far inside the 1e-9 equivalence budget. Whole chunks run
// two at a time, their recurrences side by side, so neither waits on the
// other's multiply chain; each chunk's oscillator and products are the
// same as when it runs alone.
//
//ecolint:hotpath in-place oscillator recurrence
func mixChunks(dst []complex128, x []float64, w float64, step complex128, from, to int) {
	base := from
	for ; base+2*mixChunk <= to; base += 2 * mixChunk {
		sa, ca := math.Sincos(w * float64(base))
		sb, cb := math.Sincos(w * float64(base+mixChunk))
		oa, ob := complex(ca, -sa), complex(cb, -sb)
		xa, xb := x[base:base+mixChunk], x[base+mixChunk:base+2*mixChunk]
		outa := dst[base-from:][:mixChunk]
		outb := dst[base+mixChunk-from:][:mixChunk]
		for i := range mixChunk {
			outa[i] = mixSample(xa[i], oa)
			outb[i] = mixSample(xb[i], ob)
			oa *= step
			ob *= step
		}
	}
	for ; base < to; base += mixChunk {
		end := min(base+mixChunk, to)
		s, c := math.Sincos(w * float64(base))
		osc := complex(c, -s)
		out := dst[base-from : end-from]
		for i, v := range x[base:end] {
			out[i] = mixSample(v, osc)
			osc *= step
		}
	}
}

// mixSample is the mixed sample complex(v, 0)·osc, bit for bit, from the
// two products v·real(osc) and v·imag(osc). The complex product adds the
// zero part's products, −0·imag(osc) and 0·real(osc), which can only flip
// the sign of a zero; so a zero product takes the full form.
func mixSample(v float64, osc complex128) complex128 {
	re, im := v*real(osc), v*imag(osc)
	if re == 0 || im == 0 {
		return complex(v, 0) * osc
	}
	return complex(re, im)
}

// MixDecimate is MixDown followed by a decimating low-pass, without a
// full-rate buffer between them: it filters the mixed signal with the
// real kernel h and keeps one output per block of d samples, at the
// block's centre. dst[k] is ConvolveComplex(MixDown(x), h)[k·d + (d−1)/2]
// for k < ⌈len(x)/d⌉ (same centring; the mixed signal is zero-padded at
// both ends, so the centre of a last, partial block may lie past len(x)),
// and the kept outputs are all it computes. The mixed samples live only in
// seg, a window over the capture that slides forward by whole oscillator
// chunks, so each is bit-identical to MixDown's and the outputs are
// bit-identical to filtering MixDown's full buffer output by output.
// len(seg) must be at least len(h) + 2·256; a longer seg refills less
// often, and from len(h) + 3·d + 2·256 on, four consecutive outputs whose
// kernels lie wholly inside the capture are filtered at once
// (filterQuad), each in its own tap order. It returns dst resliced to the
// kept length; len(dst) must be at least that. Allocation-free.
//
//ecolint:unit fs hz
//ecolint:unit fc hz
//ecolint:hotpath mixes into the caller's window and multiply-adds the kept outputs only
func MixDecimate(dst, seg []complex128, x []float64, fs, fc float64, h []float64, d int) []complex128 {
	if d < 1 {
		panic("dsp: MixDecimate factor must be positive")
	}
	n := len(x)
	m := (n + d - 1) / d
	if len(dst) < m {
		panic("dsp: MixDecimate output buffer too short")
	}
	if n > 0 && len(seg) < len(h)+2*mixChunk {
		panic("dsp: MixDecimate window buffer too short")
	}
	w := 2 * math.Pi * fc / fs
	step := mixStep(w)
	mid := len(h) / 2
	// Four outputs run at once when their kernels lie wholly inside the
	// capture and the window buffer holds all four after a slide.
	quads := len(seg) >= len(h)+3*d+2*mixChunk
	// seg[:hi-lo] holds the mixed x[lo:hi]; hi is a chunk boundary or n.
	lo, hi := 0, 0
	for k := 0; k < m; {
		// Output i sees h[t]·x[i+mid−t]: the inputs [jLo, jHi).
		i := k*d + (d-1)/2
		jLo, jHi := max(0, i+mid-len(h)+1), min(n, i+mid+1)
		if jLo >= jHi {
			dst[k] = 0 // the kernel lies wholly past the capture's end
			k++
			continue
		}
		// Output k+3 reads the inputs up to quadHi.
		if quadHi := i + 3*d + mid + 1; quads && k+3 < m && i+mid+1 >= len(h) && quadHi <= n {
			if quadHi > hi {
				lo, hi = slideMixed(seg, x, w, step, lo, hi, jLo)
			}
			dst[k], dst[k+1], dst[k+2], dst[k+3] = filterQuad(seg[jLo-lo:], h, d)
			k += 4
			continue
		}
		if jHi > hi {
			lo, hi = slideMixed(seg, x, w, step, lo, hi, jLo)
		}
		// t runs up from max(0, i+mid−n+1) as the input runs down from
		// jHi−1, the order ConvolveComplex sums in.
		win := seg[jLo-lo : jHi-lo]
		last := len(win) - 1
		var re, im float64
		for t, hv := range h[i+mid+1-jHi:][:len(win)] {
			v := win[last-t]
			re += hv * real(v)
			im += hv * imag(v)
		}
		dst[k] = complex(re, im)
		k++
	}
	return dst[:m]
}

// slideMixed slides MixDecimate's window of mixed samples, which holds
// x[lo:hi] mixed, forward to start at jLo: it keeps what the window still
// holds from jLo on, restarting at jLo's chunk when it holds none of it,
// and mixes whole chunks until the window is full. It returns the new
// [lo, hi).
func slideMixed(seg []complex128, x []float64, w float64, step complex128, lo, hi, jLo int) (int, int) {
	if jLo >= hi {
		lo = jLo - jLo%mixChunk
		hi = lo
	} else {
		copy(seg, seg[jLo-lo:hi-lo])
		lo = jLo
	}
	end := min(len(x), lo+len(seg))
	if end < len(x) {
		end -= end % mixChunk
	}
	mixChunks(seg[hi-lo:], x, w, step, hi, end)
	return lo, end
}

// filterQuad is four consecutive kept outputs whose kernels lie wholly
// inside the mixed samples: output q reads win[q·d:][:len(h)], and each
// sums its taps in the order MixDecimate's one-output loop does (t up as
// the input runs down). Their eight sums run side by side.
func filterQuad(win []complex128, h []float64, d int) (a, b, c, e complex128) {
	n := len(h)
	w0, w1, w2, w3 := win[:n], win[d:][:n], win[2*d:][:n], win[3*d:][:n]
	var r0, i0, r1, i1, r2, i2, r3, i3 float64
	for t, hv := range h {
		u := n - 1 - t
		v0, v1, v2, v3 := w0[u], w1[u], w2[u], w3[u]
		r0 += hv * real(v0)
		i0 += hv * imag(v0)
		r1 += hv * real(v1)
		i1 += hv * imag(v1)
		r2 += hv * real(v2)
		i2 += hv * imag(v2)
		r3 += hv * real(v3)
		i3 += hv * imag(v3)
	}
	return complex(r0, i0), complex(r1, i1), complex(r2, i2), complex(r3, i3)
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
