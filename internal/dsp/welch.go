package dsp

import "math"

// Welch power-spectral-density estimation: split the record into
// overlapping Hann-windowed segments, average their periodograms. Compared
// with a single FFT, the averaging suppresses the variance of the noise
// floor, which is what makes weak structural modes stand out in the modal
// analysis of long acceleration records.

// HannWindow returns an n-point Hann window.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// WelchPSD estimates the one-sided PSD of x sampled at fs using segments
// of the given length with 50 % overlap, each transformed by the cached
// real-input FFT plan. The segment length is rounded up to a power of two
// (zero padding); a segment longer than the record shrinks to the record,
// giving a single padded periodogram. Returned frequencies run 0..fs/2.
//
//ecolint:unit fs hz
func WelchPSD(x []float64, fs float64, segment int) (freqs, psd []float64) {
	if len(x) == 0 || fs <= 0 {
		return nil, nil
	}
	if segment <= 0 || segment > len(x) {
		segment = len(x)
	}
	n := NextPow2(segment)
	win := HannWindow(segment)
	// Window power normalisation.
	var wp float64
	for _, w := range win {
		wp += w * w
	}
	if wp == 0 {
		return nil, nil
	}
	p := PlanRFFT(n)
	half := p.HalfLen()
	acc := make([]float64, half)
	segments := 0
	step := segment / 2
	if step < 1 {
		step = segment
	}
	// The clamp above keeps len(win) <= len(x), so at least one segment
	// runs; buf[len(win):] stays zero as the power-of-two padding.
	buf := make([]float64, n)
	spec := make([]complex128, half)
	for start := 0; start+len(win) <= len(x); start += step {
		for i, w := range win {
			buf[i] = x[start+i] * w
		}
		p.Transform(spec, buf)
		for k, c := range spec {
			re, im := real(c), imag(c)
			pk := (re*re + im*im) / (wp * fs)
			if k != 0 && k != n/2 {
				pk *= 2
			}
			acc[k] += pk
		}
		segments++
	}
	freqs = make([]float64, half)
	psd = make([]float64, half)
	for k := 0; k < half; k++ {
		freqs[k] = float64(k) * fs / float64(n)
		psd[k] = acc[k] / float64(segments)
	}
	return freqs, psd
}
