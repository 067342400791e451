package phy

// Fast uplink decode path: the §5.1 receive chain as production runs it.
// The capture is mixed down around the estimated carrier at the full
// sample rate, then the 101-tap FIRLowPass kernel runs as a decimating
// filter that computes one output per block of D capture samples, at the
// block's centre (dsp.DecimateComplex). The low-passed baseband keeps
// ~2·bitrate of a ~1 MS/s capture, so everything after the filter —
// moving-baseline removal, principal-axis projection, the prefix sums, and
// the pilot correlation and matched filter feeding the FM0 trellis — runs
// on the n/D kept samples. The front end runs once per capture into
// recycled scratch (a conc.FreeList, holding one scratch per decode that
// ever ran concurrently).
//
// D (decimation) is derived from the filter and the uplink: the kernel's
// stopband edge must stay below fs/D − bw, so nothing it passes aliases into
// the band, and a half-symbol must keep at least 8 kept samples (D = 46 at
// 1 kbps and 31 at 2 kbps, 1 MS/s). Pilot sync and demodulation keep
// working in capture samples: every half-symbol window [a, b) is an O(1)
// difference of sum, which integrates the kept samples over whole blocks
// and interpolates inside the block an edge falls in. So slot windows,
// search steps and frame starts are capture samples as at the full rate,
// and a half-symbol boundary between two kept samples costs nothing.
//
// Equivalence contract (frontend_equiv_test.go and the reader's
// decode-outcome golden): the full-rate chain — the same stages at D = 1 on
// dsp.ConvolveComplex — lives in the tests as the oracle, pinned to the
// reference chain in reference_test.go (baseband within 1e-9 per sample,
// identical sync offsets and decoded bits). Production differs from the
// oracle only in D: its filter output equals ConvolveComplex at every kept
// index within 1e-9, its bit-error rate matches the oracle's at the Fig. 15
// SNR points within a binomial tolerance, and the reader's decode outcomes
// are byte-identical to the full-rate chain's. DemodulateFrame,
// DemodulateFrameInto and DemodulateSlots are the production entry points.

import (
	"errors"
	"math"
	"math/cmplx"

	"ecocapsule/internal/coding"
	"ecocapsule/internal/conc"
	"ecocapsule/internal/dsp"
)

// Static decode errors, hoisted to package scope so the hotpath-marked
// decode chain reports them without a per-call errors.New allocation.
var (
	errNBitsNotPositive = errors.New("phy: nBits must be positive")
	errBitrateTooHigh   = errors.New("phy: bitrate too high for the sample rate")
	errCaptureShort     = errors.New("phy: capture shorter than the frame")
	errSlotOutside      = errors.New("phy: slot window outside the capture")
)

// lowpassTaps is the length of the down-conversion low-pass kernel.
const lowpassTaps = 101

// minHalfSamples is the fewest kept samples a half-symbol may span after
// decimation, so the interpolated blocks at a window's two edges stay a
// small share of its integral.
const minHalfSamples = 8

// decimation returns the largest factor D the low-passed baseband can be
// decimated by. The windowed-sinc kernel's stopband starts half a Hamming
// transition width (3.3·fs/taps) above its cutoff bw; D must keep that edge
// below fs/D − bw, where the first alias of the band begins, and leave a
// half-symbol at least minHalfSamples kept samples.
func (rx *ReaderRX) decimation() int {
	bw := rx.Bitrate*2 + rx.GuardBand
	stop := bw + 0.5*3.3*rx.SampleRate/lowpassTaps
	d := min(int(rx.SampleRate/(stop+bw)), int(rx.SampleRate/(2*rx.Bitrate)/minHalfSamples))
	return max(d, 1)
}

// pilotHalves is the FM0 half-symbol template of PilotBits, rendered once.
var pilotHalves = pilotTemplate()

// feScratch holds every buffer of one capture's decode front-end; instances
// recycle through feScratches so the warm decode path allocates nothing.
type feScratch struct {
	// mixed holds the packed carrier spectrum (n/2+1 bins of the capture's
	// NextPow2 length n, never more than the capture), then the full-rate
	// MixDown output, then the baseline-removed baseband.
	mixed  []complex128
	taps   []float64 // low-pass kernel, designed for (tapsFS, tapsBW)
	tapsFS float64
	tapsBW float64
	bb     []complex128 // low-passed complex baseband at the kept samples
	preC   []complex128 // complex prefix sums for the moving baseline
	mag    []float64    // |bb| for the envelope anchor
	ac     []float64    // projected real baseband
	pre    []float64    // prefix sums of ac: pre[i] = Σ ac[:i]
	halves []float64    // integrate-and-dump matched-filter outputs
	bits   []byte       // decoded frame bits (pilot + payload)
	n      int          // capture length in samples
	d      int          // decimation: kept sample k is capture sample k·d
	m      int          // kept samples, ⌈n/d⌉
}

var feScratches = conc.FreeList[*feScratch]{New: func() *feScratch { return &feScratch{} }}

//ecolint:hotpath grows only until the recycled scratch reaches the largest capture; steady state reslices
func growF(b []float64, n int) []float64 {
	if cap(b) < n {
		//ecolint:ignore hotalloc cold-path capacity growth; warm calls take the reslice branch
		return make([]float64, n)
	}
	return b[:n]
}

//ecolint:hotpath grows only until the recycled scratch reaches the largest capture; steady state reslices
func growC(b []complex128, n int) []complex128 {
	if cap(b) < n {
		//ecolint:ignore hotalloc cold-path capacity growth; warm calls take the reslice branch
		return make([]complex128, n)
	}
	return b[:n]
}

// estimateCarrierFast reproduces the reference carrier estimate (the
// strongest bin of the zero-padded spectrum, refined by peakOffset) bit for
// bit, but through the cached real-input FFT plan's zero-extending
// transform into the scratch's mixing buffer, which MixDown overwrites once
// the carrier is known.
//
//ecolint:hotpath runs once per capture on recycled scratch and the shared RFFT plan
func (rx *ReaderRX) estimateCarrierFast(sc *feScratch, signal []float64) (float64, error) {
	if len(signal) == 0 {
		return 0, ErrNoCarrier
	}
	n := dsp.NextPow2(len(signal))
	p := dsp.PlanRFFT(n)
	sc.mixed = growC(sc.mixed, len(signal))
	spec := sc.mixed[:p.HalfLen()] // n/2+1 <= len(signal), since n < 2·len(signal)
	p.TransformPadded(spec, signal)
	fLo := rx.CarrierHint - rx.CarrierSearch
	fHi := rx.CarrierHint + rx.CarrierSearch
	best, bestMag := -1, -1.0
	for i := 0; i <= n/2; i++ {
		f := float64(i) * rx.SampleRate / float64(n)
		if f < fLo || f > fHi {
			continue
		}
		if m := binMag(spec, i, len(signal)); m > bestMag {
			best, bestMag = i, m
		}
	}
	if best <= 0 {
		return 0, ErrNoCarrier
	}
	bin := rx.SampleRate / float64(n)
	if best == n/2 {
		return float64(best) * bin, nil
	}
	a, c := binMag(spec, best-1, len(signal)), binMag(spec, best+1, len(signal))
	return (float64(best) + peakOffset(a, bestMag, c)) * bin, nil
}

// binMag is the folded single-sided magnitude of bin i of the packed
// spectrum spec of an l-sample capture, as dsp.Spectrum computes it.
func binMag(spec []complex128, i, l int) float64 {
	m := cmplx.Abs(spec[i]) / float64(l)
	if i != 0 && i != len(spec)-1 {
		m *= 2
	}
	return m
}

// peakOffset places a spectral peak between bins: given the magnitudes of
// the strongest bin b and its neighbours a and c, it returns the offset in
// bins, within ±½, of the vertex of the parabola through their logarithms.
// The carrier sits between FFT bins in general, and the residual offset
// rotates the down-converted baseband: at 4 kbps through a 15 cm block the
// 32768-point grid leaves up to 19.5 Hz, half a turn over a frame, enough
// to smear the pilot below the acceptance cosine. The log-parabola leaves
// a few hertz.
func peakOffset(a, b, c float64) float64 {
	if a <= 0 || c <= 0 || b < a || b < c {
		return 0
	}
	la, lb, lc := math.Log(a), math.Log(b), math.Log(c)
	den := la - 2*lb + lc
	if den >= 0 {
		return 0
	}
	return max(-0.5, min(0.5, 0.5*(la-lc)/den))
}

// frontEnd fills sc with the shared decode state for the capture: carrier
// estimate, the decimated low-passed baseband, and its projection and
// prefix sums (project).
//
//ecolint:hotpath the once-per-capture front-end; all buffers come from recycled scratch
func (rx *ReaderRX) frontEnd(sc *feScratch, signal []float64) (float64, error) {
	fc, err := rx.estimateCarrierFast(sc, signal)
	if err != nil {
		return 0, err
	}
	n := len(signal)
	bw := rx.Bitrate*2 + rx.GuardBand
	if sc.tapsFS != rx.SampleRate || sc.tapsBW != bw {
		//ecolint:ignore hotalloc the kernel is designed once per scratch and filter shape; warm captures reuse it
		sc.taps = dsp.FIRLowPass(rx.SampleRate, bw, lowpassTaps)
		sc.tapsFS, sc.tapsBW = rx.SampleRate, bw
	}
	sc.mixed = growC(sc.mixed, n)
	dsp.MixDown(sc.mixed, signal, rx.SampleRate, fc)
	d := rx.decimation()
	sc.bb = growC(sc.bb, (n+d-1)/d)
	sc.bb = dsp.DecimateComplex(sc.bb, sc.mixed, sc.taps, d)
	rx.project(sc, n, d)
	return fc, nil
}

// project runs the rest of the front end on the low-passed baseband sc.bb
// of an n-sample capture decimated by d: moving-baseline leakage removal,
// principal-axis projection into sc.ac, and the prefix sums sc.pre every
// matched-filter window reads from. The arithmetic is the reference
// basebandAC's at the kept-sample rate SampleRate/d.
//
//ecolint:hotpath per-kept-sample loops on recycled scratch
func (rx *ReaderRX) project(sc *feScratch, n, d int) {
	bb := sc.bb
	m := len(bb)
	fs := rx.SampleRate / float64(d)
	sc.n, sc.d, sc.m = n, d, m

	// Moving-baseline leakage removal on complex prefix sums.
	w := int(4 * fs / rx.Bitrate)
	if w < 1 {
		w = 1
	}
	if w > m {
		w = m
	}
	sc.preC = growC(sc.preC, m+1)
	sc.preC[0] = 0
	for i, v := range bb {
		sc.preC[i+1] = sc.preC[i] + v
	}
	res := sc.mixed[:m] // the mixing buffer is free again
	for i := range bb {
		lo := i - w/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + w
		if hi > m {
			hi = m
			lo = hi - w
		}
		base := (sc.preC[hi] - sc.preC[lo]) / complex(float64(hi-lo), 0)
		res[i] = bb[i] - base
	}

	// Principal-axis projection with the envelope-anchored sign.
	var sr, si float64
	for _, r := range res {
		re, im := real(r), imag(r)
		sr += re*re - im*im
		si += 2 * re * im
	}
	psi := 0.5 * math.Atan2(si, sr)
	cp, sp := math.Cos(psi), math.Sin(psi)
	sc.mag = growF(sc.mag, m)
	for i, v := range bb {
		sc.mag[i] = math.Hypot(real(v), imag(v))
	}
	magMean := dsp.Mean(sc.mag)
	sc.ac = growF(sc.ac, m)
	var anchor float64
	for i, r := range res {
		a := real(r)*cp + imag(r)*sp
		sc.ac[i] = a
		anchor += a * (sc.mag[i] - magMean)
	}
	if anchor < 0 {
		for i := range sc.ac {
			sc.ac[i] = -sc.ac[i]
		}
	}

	// Prefix sums of ac: every half-symbol integral and pilot correlation
	// below becomes O(1) per window.
	sc.pre = growF(sc.pre, m+1)
	sc.pre[0] = 0
	for i, v := range sc.ac {
		sc.pre[i+1] = sc.pre[i] + v
	}
}

// meanWindow is the mean of the projected baseband over capture samples
// [a, b) through the kept-sample prefix sums (sum).
func (sc *feScratch) meanWindow(a, b int) float64 {
	return (sc.sum(b) - sc.sum(a)) / float64(b-a)
}

// sum is the integral of the projected baseband over capture samples
// [0, x). Kept sample k was filtered at the centre of block [k·d, (k+1)·d),
// so a whole block integrates to d·ac[k], and the part of the block x
// falls in integrates the line through ac[k] with the slope of its
// neighbours — the baseband varies smoothly across a block, since the
// low-pass kernel spans several. At d = 1 it is pre[x].
func (sc *feScratch) sum(x int) float64 {
	k, r := x/sc.d, x%sc.d
	s := float64(sc.d) * sc.pre[k]
	if r > 0 {
		lo, hi := max(k-1, 0), min(k+1, sc.m-1)
		var slope float64
		if hi > lo {
			slope = (sc.ac[hi] - sc.ac[lo]) / float64((hi-lo)*sc.d)
		}
		s += float64(r) * (sc.ac[k] + slope*float64(r-sc.d)/2)
	}
	return s
}

// pilotScoreFast mirrors the reference pilotScore with O(1) window
// integrals; hi bounds the last sample the correlation may touch (the
// window end for slots, the capture end otherwise).
func (sc *feScratch) pilotScoreFast(start int, half float64, hi int) float64 {
	var score float64
	for h, level := range pilotHalves {
		a := start + int(float64(h)*half)
		b := start + int(float64(h+1)*half)
		if b > hi {
			return -1
		}
		score += level * sc.meanWindow(a, b)
	}
	return score
}

// pilotCosineFast mirrors the reference pilotCosine on the prefix sums.
func (sc *feScratch) pilotCosineFast(start int, half float64, hi int) float64 {
	var dot, vv float64
	for h, level := range pilotHalves {
		a := start + int(float64(h)*half)
		b := start + int(float64(h+1)*half)
		if b > hi {
			return 0
		}
		v := sc.meanWindow(a, b)
		dot += level * v
		vv += v * v
	}
	if vv == 0 {
		return 0
	}
	return dot / (math.Sqrt(vv) * math.Sqrt(float64(len(pilotHalves))))
}

// syncWindow locates the pilot inside ac[lo:hi) with the same
// coarse-to-fine search and acceptance rule as synchronizeReference;
// searchLimit bounds the candidate start relative to lo.
//
//ecolint:hotpath pilot search is strided reads of the shared prefix sums
func (rx *ReaderRX) syncWindow(sc *feScratch, lo, hi, searchLimit int) (int, error) {
	half := rx.SampleRate / (2 * rx.Bitrate)
	if half < 1 {
		return 0, errBitrateTooHigh
	}
	window := hi - lo
	tmplLen := int(float64(len(pilotHalves)) * half)
	if searchLimit+tmplLen > window {
		searchLimit = window - tmplLen
	}
	if searchLimit <= 0 {
		return 0, ErrNoSync
	}
	step := int(half / 4)
	if step < 1 {
		step = 1
	}
	best, bestScore := -1, 0.0
	for start := 0; start <= searchLimit; start += step {
		score := sc.pilotScoreFast(lo+start, half, hi)
		if score > bestScore {
			best, bestScore = start, score
		}
	}
	if best < 0 {
		return 0, ErrNoSync
	}
	fLo := best - step
	if fLo < 0 {
		fLo = 0
	}
	fHi := best + step
	if fHi > searchLimit {
		fHi = searchLimit
	}
	for start := fLo; start <= fHi; start++ {
		score := sc.pilotScoreFast(lo+start, half, hi)
		if score > bestScore {
			best, bestScore = start, score
		}
	}
	if bestScore <= 0 || sc.pilotCosineFast(lo+best, half, hi) < 0.72 {
		return 0, ErrNoSync
	}
	return lo + best, nil
}

// demodWindow integrates the half-symbols of nBits bits starting at sample
// start (bounded by hi), normalises, and decodes — demodulateReference's
// back half on the shared front-end. FM0 bits are appended to dst through
// the recycled-trellis decoder, so warm calls allocate nothing.
//
//ecolint:hotpath matched filter + trellis decode on recycled buffers
func (rx *ReaderRX) demodWindow(sc *feScratch, dst []byte, start, nBits, hi int) ([]byte, error) {
	if nBits <= 0 {
		return nil, errNBitsNotPositive
	}
	halfSamples := rx.SampleRate / (2 * rx.Bitrate)
	if halfSamples < 1 {
		return nil, errBitrateTooHigh
	}
	nHalves := nBits * rx.halvesPerBit()
	sc.halves = growF(sc.halves, nHalves)
	for h := 0; h < nHalves; h++ {
		a := start + int(float64(h)*halfSamples)
		b := start + int(float64(h+1)*halfSamples)
		if b > hi {
			return nil, errCaptureShort
		}
		sc.halves[h] = sc.meanWindow(a, b)
	}
	halves := sc.halves[:nHalves]
	scale := dsp.MaxAbs(halves)
	if scale > 0 {
		for i := range halves {
			halves[i] /= scale
		}
	}
	if rx.Coding == CodingMiller4 {
		//ecolint:ignore hotalloc the Miller decoder allocates its symbol buffer; the zero-alloc contract covers FM0 only
		bits, err := coding.MillerDecode(halves, coding.Miller4)
		if err != nil {
			return nil, err
		}
		return append(dst, bits...), nil
	}
	return coding.FM0DecodeMLAppend(dst, halves), nil
}

// DemodulateFrame synchronises on the pilot and decodes nBits payload bits
// that follow it, returning the payload (pilot stripped). The front-end —
// which the reference chain runs twice, once to synchronise and once to
// demodulate — runs exactly once here.
func (rx *ReaderRX) DemodulateFrame(signal []float64, nBits int) ([]byte, error) {
	return rx.DemodulateFrameInto(nil, signal, nBits)
}

// DemodulateFrameInto is DemodulateFrame appending the payload bits to dst.
// When dst has capacity for nBits and a front-end scratch is free, the
// whole decode performs zero steady-state allocations (FM0 coding; the
// Miller decoder still allocates its symbol buffer).
//
//ecolint:hotpath zero-alloc invariant guarded by TestDemodulateFrameIntoZeroAlloc
func (rx *ReaderRX) DemodulateFrameInto(dst []byte, signal []float64, nBits int) ([]byte, error) {
	sc := feScratches.Get()
	defer feScratches.Put(sc)
	if _, err := rx.frontEnd(sc, signal); err != nil {
		cDemodNoSync.Inc()
		return nil, err
	}
	if _, err := rx.decodeWindow(sc, 0, sc.n, nBits); err != nil {
		return nil, err
	}
	return append(dst, sc.bits[len(PilotBits):]...), nil
}

// decodeWindow decodes one pilot-prefixed frame inside the window
// [lo, hi) of the shared front-end: pilot sync, matched-filter
// demodulation of the pilot and nBits payload bits, and the pilot check.
// It counts the outcome and returns the frame-start sample; the decoded
// payload is sc.bits[len(PilotBits):]. DemodulateFrameInto is the window
// [0, n); DemodulateSlots runs it once per slot.
//
//ecolint:hotpath per-window sync and demodulation on recycled scratch
func (rx *ReaderRX) decodeWindow(sc *feScratch, lo, hi, nBits int) (int, error) {
	limit := rx.frameSearchLimit(hi-lo, nBits)
	if limit <= 0 {
		cDemodError.Inc()
		return 0, errCaptureShort
	}
	start, err := rx.syncWindow(sc, lo, hi, limit)
	if err != nil {
		cDemodNoSync.Inc()
		return 0, err
	}
	sc.bits, err = rx.demodWindow(sc, sc.bits[:0], start, len(PilotBits)+nBits, hi)
	if err != nil {
		cDemodError.Inc()
		return 0, err
	}
	if !pilotValid(sc.bits) {
		cDemodNoSync.Inc()
		return 0, ErrNoSync
	}
	cDemodOK.Inc()
	return start, nil
}

// frameSearchLimit bounds the pilot search of a frame of nBits payload
// bits in a window of the given length: the first half of the window, and
// no later than the last start that leaves room for the whole frame. A
// payload stretch that happens to resemble the pilot near the window's end
// would otherwise win the search and fail demodulation with
// errCaptureShort, although the true frame start lies within the bound.
func (rx *ReaderRX) frameSearchLimit(window, nBits int) int {
	half := rx.SampleRate / (2 * rx.Bitrate)
	frame := int(float64((len(PilotBits)+nBits)*rx.halvesPerBit()) * half)
	return min(window/2, window-frame)
}

// halvesPerBit is the number of matched-filter halves one bit spans under
// the configured uplink code.
func (rx *ReaderRX) halvesPerBit() int {
	if rx.Coding == CodingMiller4 {
		return 8
	}
	return 2
}

// pilotValid applies DemodulateFrame's pilot acceptance rule (tolerate up
// to len/3 bit slips) to a decoded pilot-prefixed frame.
func pilotValid(bits []byte) bool {
	errs := 0
	for i, b := range PilotBits {
		if bits[i] != b {
			errs++
		}
	}
	return errs <= len(PilotBits)/3
}

// Slot describes one TDMA uplink slot inside a round capture.
type Slot struct {
	Start int // first sample of the slot window
	Len   int // slot window length in samples
	NBits int // payload bits expected after the pilot
}

// SlotBits is the decode outcome of one slot of a batched round.
type SlotBits struct {
	Bits  []byte // decoded payload (nil when Err != nil)
	Start int    // frame-start sample within the capture
	Err   error
}

// DemodulateSlots decodes every uplink slot of a round capture in one
// batched pass: the receive front-end (carrier estimate, down-conversion,
// baseline removal, projection, prefix sums) runs once over the whole
// capture, and each slot's pilot search and matched-filter demodulation are
// strided reads of the shared prefix sums. Decoded payloads match the
// per-slot reference decode (demodulateFrameReference over each slot's
// sub-capture) bit for bit on every slot both paths decode — guarded by the
// equivalence battery.
//
//ecolint:hotpath the front-end runs once per round; per-slot work is O(slot) reads of shared state
func (rx *ReaderRX) DemodulateSlots(signal []float64, slots []Slot) []SlotBits {
	//ecolint:ignore hotalloc one result element per requested slot is the API product
	out := make([]SlotBits, len(slots))
	if len(slots) == 0 {
		return out
	}
	sc := feScratches.Get()
	defer feScratches.Put(sc)
	if _, err := rx.frontEnd(sc, signal); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i, sl := range slots {
		lo, hi := sl.Start, sl.Start+sl.Len
		if lo < 0 || hi > sc.n || lo >= hi {
			out[i].Err = errSlotOutside
			continue
		}
		start, err := rx.decodeWindow(sc, lo, hi, sl.NBits)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i] = SlotBits{
			//ecolint:ignore hotalloc each decoded payload escapes to the caller by contract; scratch bits are recycled
			Bits:  append([]byte(nil), sc.bits[len(PilotBits):]...),
			Start: start,
		}
	}
	return out
}
