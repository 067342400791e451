package phy

import (
	"errors"
	"math"

	"ecocapsule/internal/coding"
	"ecocapsule/internal/dsp"
)

// The reference receive chain, the full-rate oracle the decimating
// production front end (frontend.go) is tested against, and single-stage
// entry points on either front end. Production decodes only through
// DemodulateFrame, DemodulateFrameInto and DemodulateSlots.
//
// The reference stages recompute everything per call: the carrier
// estimate through dsp.Spectrum, down-conversion through
// dsp.DownConvert (per-sample Sincos mixing, direct O(n·taps) FIR), and the
// pilot correlation and matched filter through dsp.Mean over each window.
// The oracle is the production chain without decimation: the same carrier
// estimate and mixer, the full-rate low-pass through dsp.ConvolveComplex,
// and project, sync and demodulation at D = 1.

// estimateCarrier runs the §5.1 carrier-frequency estimation on the raw
// capture: the strongest bin of dsp.Spectrum in the search band, refined
// between bins by peakOffset.
//
//ecolint:unit return hz
func (rx *ReaderRX) estimateCarrier(signal []float64) (float64, error) {
	freqs, mags := dsp.Spectrum(signal, rx.SampleRate)
	best, bestMag := -1, -1.0
	for i, f := range freqs {
		if f < rx.CarrierHint-rx.CarrierSearch || f > rx.CarrierHint+rx.CarrierSearch {
			continue
		}
		if mags[i] > bestMag {
			best, bestMag = i, mags[i]
		}
	}
	if best <= 0 {
		return 0, ErrNoCarrier
	}
	if best == len(freqs)-1 {
		return freqs[best], nil
	}
	return (float64(best) + peakOffset(mags[best-1], bestMag, mags[best+1])) * freqs[1], nil
}

// basebandAC is the shared receive front-end of the reference
// synchronizer and demodulator: down-convert around fc, coherently
// suppress the CBW self-interference, and reduce the complex baseband to
// the real waveform carrying the backscatter amplitude steps.
//
// The leakage folds to a complex DC term after down-conversion, so
// subtracting the complex mean removes it regardless of its phase. The
// residual rides along the backscatter channel's phase axis; projecting
// onto that principal axis (2ψ = arg Σ r²) recovers the full modulation
// depth even when the channel phase is in quadrature with the leakage —
// the case where the old envelope detector (|bb| − mean) lost the signal.
// The projection's sign ambiguity is anchored to the envelope detector so
// polarity-sensitive callers see the legacy orientation.
func (rx *ReaderRX) basebandAC(signal []float64, fc float64) []float64 {
	bw := rx.Bitrate*2 + rx.GuardBand
	bb := dsp.DownConvert(signal, rx.SampleRate, fc, bw)
	if len(bb) == 0 {
		return nil
	}
	// The leakage is not perfectly stationary over the capture (it stops
	// when the interrogating carrier does, while the multipath tail rings
	// on), so a global mean would leave a step that hijacks the principal
	// axis. A moving baseline a few bit-periods wide tracks the leakage
	// without following the half-symbol modulation.
	w := int(4 * rx.SampleRate / rx.Bitrate)
	if w < 1 {
		w = 1
	}
	if w > len(bb) {
		w = len(bb)
	}
	pre := make([]complex128, len(bb)+1)
	for i, v := range bb {
		pre[i+1] = pre[i] + v
	}
	res := make([]complex128, len(bb))
	for i := range bb {
		lo := i - w/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + w
		if hi > len(bb) {
			hi = len(bb)
			lo = hi - w
		}
		base := (pre[hi] - pre[lo]) / complex(float64(hi-lo), 0)
		res[i] = bb[i] - base
	}
	var sr, si float64
	for _, r := range res {
		re, im := real(r), imag(r)
		sr += re*re - im*im
		si += 2 * re * im
	}
	psi := 0.5 * math.Atan2(si, sr)
	cp, sp := math.Cos(psi), math.Sin(psi)
	mag := dsp.Magnitude(bb)
	magMean := dsp.Mean(mag)
	ac := make([]float64, len(bb))
	var anchor float64
	for i, r := range res {
		ac[i] = real(r)*cp + imag(r)*sp
		anchor += ac[i] * (mag[i] - magMean)
	}
	if anchor < 0 {
		for i := range ac {
			ac[i] = -ac[i]
		}
	}
	return ac
}

// demodulateReference recovers the FM0 bit stream from a raw reader capture
// that contains nBits bits starting at sample offset start. It is the
// original per-call implementation — every stage recomputed from scratch,
// per-sample Sincos mixing, direct O(n·taps) filtering — retained verbatim
// as the slow reference the fast path (frontEnd + demodWindow) is
// equivalence-tested against.
func (rx *ReaderRX) demodulateReference(signal []float64, start, nBits int) ([]byte, error) {
	if nBits <= 0 {
		return nil, errors.New("phy: nBits must be positive")
	}
	fc, err := rx.estimateCarrier(signal)
	if err != nil {
		return nil, err
	}
	ac := rx.basebandAC(signal, fc)
	// Integrate-and-dump per half-symbol (the matched filter for
	// rectangular halves).
	halfSamples := rx.SampleRate / (2 * rx.Bitrate)
	if halfSamples < 1 {
		return nil, errors.New("phy: bitrate too high for the sample rate")
	}
	halvesPerBit := 2
	if rx.Coding == CodingMiller4 {
		halvesPerBit = 8
	}
	nHalves := nBits * halvesPerBit
	halves := make([]float64, nHalves)
	for h := 0; h < nHalves; h++ {
		a := start + int(float64(h)*halfSamples)
		b := start + int(float64(h+1)*halfSamples)
		if b > len(ac) {
			return nil, errors.New("phy: capture shorter than the frame")
		}
		halves[h] = dsp.Mean(ac[a:b])
	}
	// Normalise and run the configured decoder.
	scale := dsp.MaxAbs(halves)
	if scale > 0 {
		for i := range halves {
			halves[i] /= scale
		}
	}
	if rx.Coding == CodingMiller4 {
		return coding.MillerDecode(halves, coding.Miller4)
	}
	return coding.FM0DecodeML(halves), nil
}

// synchronizeReference locates the start sample of a pilot-prefixed FM0
// frame in a raw pass-band capture. It down-converts around the estimated
// carrier, strips the CBW pedestal, and slides the pilot template over the
// magnitude baseband. searchLimit bounds the candidate start (samples);
// zero means half the capture. This is the original implementation, kept
// as the slow reference the fast syncWindow is equivalence-tested against.
func (rx *ReaderRX) synchronizeReference(signal []float64, searchLimit int) (int, error) {
	fc, err := rx.estimateCarrier(signal)
	if err != nil {
		return 0, err
	}
	ac := rx.basebandAC(signal, fc)
	half := rx.SampleRate / (2 * rx.Bitrate)
	if half < 1 {
		return 0, errors.New("phy: bitrate too high for the sample rate")
	}
	tmpl := pilotTemplate()
	tmplLen := int(float64(len(tmpl)) * half)
	if searchLimit <= 0 {
		searchLimit = len(ac) / 2
	}
	if searchLimit+tmplLen > len(ac) {
		searchLimit = len(ac) - tmplLen
	}
	if searchLimit <= 0 {
		return 0, ErrNoSync
	}
	// Coarse-to-fine sliding correlation: integrate the capture per
	// half-symbol at each candidate offset. Step a quarter half-symbol.
	step := int(half / 4)
	if step < 1 {
		step = 1
	}
	best, bestScore := -1, 0.0
	for start := 0; start <= searchLimit; start += step {
		score := pilotScore(ac, tmpl, start, half)
		if score > bestScore {
			best, bestScore = start, score
		}
	}
	if best < 0 {
		return 0, ErrNoSync
	}
	// Fine pass around the coarse winner.
	lo := best - step
	if lo < 0 {
		lo = 0
	}
	hi := best + step
	if hi > searchLimit {
		hi = searchLimit
	}
	for start := lo; start <= hi; start++ {
		score := pilotScore(ac, tmpl, start, half)
		if score > bestScore {
			best, bestScore = start, score
		}
	}
	// Accept only a genuinely pilot-shaped alignment: the normalised
	// (cosine) correlation between the per-half integral vector and the
	// template is ≈1 at the true offset but stays well below it for
	// carrier-only captures, noise, or partial data-region alignments.
	if bestScore <= 0 || pilotCosine(ac, tmpl, best, half) < 0.72 {
		return 0, ErrNoSync
	}
	return best, nil
}

// pilotScore correlates the per-half integrals against the template.
func pilotScore(ac []float64, tmpl []float64, start int, half float64) float64 {
	var score float64
	for h, level := range tmpl {
		a := start + int(float64(h)*half)
		b := start + int(float64(h+1)*half)
		if b > len(ac) {
			return -1
		}
		score += level * dsp.Mean(ac[a:b])
	}
	return score
}

// pilotCosine is the normalised correlation (cosine similarity) between
// the per-half integral vector at the offset and the pilot template.
func pilotCosine(ac []float64, tmpl []float64, start int, half float64) float64 {
	var dot, vv float64
	for h, level := range tmpl {
		a := start + int(float64(h)*half)
		b := start + int(float64(h+1)*half)
		if b > len(ac) {
			return 0
		}
		v := dsp.Mean(ac[a:b])
		dot += level * v
		vv += v * v
	}
	if vv == 0 {
		return 0
	}
	// |tmpl| = √len because every template entry is ±1.
	return dot / (math.Sqrt(vv) * math.Sqrt(float64(len(tmpl))))
}

// demodulateFrameReference synchronises on the pilot and decodes nBits
// payload bits that follow it, returning the payload (pilot stripped). It
// composes the two reference stages — so the receive front-end runs twice,
// once per stage — and is retained (without telemetry) as the slow
// reference for the fast DemodulateFrame's equivalence battery.
func (rx *ReaderRX) demodulateFrameReference(signal []float64, nBits int) ([]byte, error) {
	// The same bound as decodeWindow: half the capture, and room for the
	// whole frame after the start.
	limit := rx.frameSearchLimit(len(signal), nBits)
	if limit <= 0 {
		return nil, errors.New("phy: capture shorter than the frame")
	}
	start, err := rx.synchronizeReference(signal, limit)
	if err != nil {
		return nil, err
	}
	total := len(PilotBits) + nBits
	bits, err := rx.demodulateReference(signal, start, total)
	if err != nil {
		return nil, err
	}
	// Validate the pilot decoded correctly (tolerate one bit slip).
	errs := 0
	for i, b := range PilotBits {
		if bits[i] != b {
			errs++
		}
	}
	if errs > len(PilotBits)/3 {
		return nil, ErrNoSync
	}
	return bits[len(PilotBits):], nil
}

// frontEndFullRate is the oracle front end: frontEnd with the low-pass
// evaluated at every capture sample (D = 1) by dsp.ConvolveComplex.
func (rx *ReaderRX) frontEndFullRate(sc *feScratch, signal []float64) (float64, error) {
	fc, err := rx.estimateCarrierFast(sc, signal)
	if err != nil {
		return 0, err
	}
	n := len(signal)
	sc.mixed = growC(sc.mixed, n)
	dsp.MixDown(sc.mixed, signal, rx.SampleRate, fc)
	sc.bb = dsp.ConvolveComplex(sc.mixed, dsp.FIRLowPass(rx.SampleRate, rx.Bitrate*2+rx.GuardBand, lowpassTaps))
	rx.project(sc, n, 1)
	return fc, nil
}

// frontEndFunc fills fresh scratch for a capture: the production
// (*ReaderRX).frontEnd or the oracle (*ReaderRX).frontEndFullRate.
type frontEndFunc func(rx *ReaderRX, sc *feScratch, signal []float64) (float64, error)

// synchronizeOn is the fast counterpart of synchronizeReference on the
// given front end: the front end once, then syncWindow over the whole
// capture. searchLimit ≤ 0 means half the capture, as for the reference.
func (rx *ReaderRX) synchronizeOn(fe frontEndFunc, signal []float64, searchLimit int) (int, error) {
	sc := &feScratch{}
	if _, err := fe(rx, sc, signal); err != nil {
		return 0, err
	}
	if searchLimit <= 0 {
		searchLimit = sc.n / 2
	}
	return rx.syncWindow(sc, 0, sc.n, searchLimit)
}

// demodulateOn is the fast counterpart of demodulateReference on the given
// front end: the front end once, then demodWindow from sample start.
func (rx *ReaderRX) demodulateOn(fe frontEndFunc, signal []float64, start, nBits int) ([]byte, error) {
	sc := &feScratch{}
	if _, err := fe(rx, sc, signal); err != nil {
		return nil, err
	}
	return rx.demodWindow(sc, nil, start, nBits, sc.n)
}

// demodulateFrameOn is DemodulateFrame on the given front end.
func (rx *ReaderRX) demodulateFrameOn(fe frontEndFunc, signal []float64, nBits int) ([]byte, error) {
	sc := &feScratch{}
	if _, err := fe(rx, sc, signal); err != nil {
		return nil, err
	}
	if _, err := rx.decodeWindow(sc, 0, sc.n, nBits); err != nil {
		return nil, err
	}
	return sc.bits[len(PilotBits):], nil
}

// synchronize and demodulate run the production (decimating) front end.
func (rx *ReaderRX) synchronize(signal []float64, searchLimit int) (int, error) {
	return rx.synchronizeOn((*ReaderRX).frontEnd, signal, searchLimit)
}

func (rx *ReaderRX) demodulate(signal []float64, start, nBits int) ([]byte, error) {
	return rx.demodulateOn((*ReaderRX).frontEnd, signal, start, nBits)
}
