package phy

// Fast uplink decode path. The reference chain in reference_test.go
// (synchronizeReference / demodulateReference / demodulateFrameReference)
// runs the whole receive front-end — carrier estimation, down-conversion,
// moving-baseline removal, principal-axis projection — once for
// synchronisation and AGAIN for demodulation, with a per-sample Sincos
// mixer and an O(n·taps) direct FIR.
// This file computes that front-end exactly once per capture into pooled
// scratch, rides the dsp fast kernels (packed real-input FFT, plan-cached
// overlap-add FIR, chunked-recurrence mixer), and matched-filters the
// half-symbols through prefix sums so every per-candidate pilot correlation
// costs O(len(template)) instead of O(window).
//
// Equivalence contract (guarded by frontend_equiv_test.go): the fast
// baseband differs from the reference only by float reassociation in the
// mixer and the FIR (≤1e-9 per sample); decoded symbols match the reference
// bit for bit across the seeded battery. DemodulateFrame,
// DemodulateFrameInto and DemodulateSlots are the production entry points;
// the reference chain lives only in the tests.

import (
	"errors"
	"math"
	"math/cmplx"
	"sync"

	"ecocapsule/internal/coding"
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

// firMu guards the shared down-conversion low-pass plan cache.
var firMu sync.Mutex

// firPlans caches the 101-tap windowed-sinc low-pass per (sample rate,
// bandwidth) so concurrent readers share one FFT plan per filter shape.
//
//ecolint:guardedby firMu
var firPlans = make(map[firKey]*dsp.FIRFilter)

type firKey struct{ fs, bw float64 }

// lowpassFor returns the shared plan-cached equivalent of the FIR low-pass
// DownConvert designs on every call.
//
//ecolint:hotpath one filter per (fs, bw) shape; warm lookups are a map read
func lowpassFor(fs, bw float64) *dsp.FIRFilter {
	firMu.Lock()
	defer firMu.Unlock()
	k := firKey{fs, bw}
	f := firPlans[k]
	if f == nil {
		//ecolint:ignore hotalloc filter design runs once per shape, then the cache serves every capture
		f = dsp.NewFIRFilter(dsp.FIRLowPass(fs, bw, 101))
		firPlans[k] = f
	}
	return f
}

// pilotHalves is the FM0 half-symbol template of PilotBits, rendered once.
var pilotHalves = pilotTemplate()

// feScratch holds every buffer of one capture's decode front-end; instances
// recycle through fePool so the warm decode path allocates nothing.
type feScratch struct {
	pad    []float64    // zero-padded FFT input for carrier estimation
	spec   []complex128 // packed half-spectrum
	mixed  []complex128 // MixDown output; reused for the baseline residual
	bb     []complex128 // low-passed complex baseband
	preC   []complex128 // complex prefix sums for the moving baseline
	mag    []float64    // |bb| for the envelope anchor
	ac     []float64    // projected real baseband (== reference basebandAC within 1e-9)
	pre    []float64    // prefix sums of ac: pre[i] = Σ ac[:i]
	halves []float64    // integrate-and-dump matched-filter outputs
	bits   []byte       // decoded frame bits (pilot + payload)
	n      int          // capture length
}

var fePool = sync.Pool{New: func() any { return &feScratch{} }}

//ecolint:hotpath grows only until the pooled scratch reaches the largest capture; steady state reslices
func growF(b []float64, n int) []float64 {
	if cap(b) < n {
		//ecolint:ignore hotalloc cold-path capacity growth; warm calls take the reslice branch
		return make([]float64, n)
	}
	return b[:n]
}

//ecolint:hotpath grows only until the pooled scratch reaches the largest capture; steady state reslices
func growC(b []complex128, n int) []complex128 {
	if cap(b) < n {
		//ecolint:ignore hotalloc cold-path capacity growth; warm calls take the reslice branch
		return make([]complex128, n)
	}
	return b[:n]
}

// estimateCarrierFast reproduces the reference carrier estimate (the
// strongest bin of the zero-padded spectrum, refined by peakOffset) bit for
// bit, but through the pooled scratch and the cached real-input FFT plan
// instead of fresh spectrum slices.
//
//ecolint:hotpath runs once per capture on pooled scratch and the shared RFFT plan
func (rx *ReaderRX) estimateCarrierFast(sc *feScratch, signal []float64) (float64, error) {
	if len(signal) == 0 {
		return 0, ErrNoCarrier
	}
	n := dsp.NextPow2(len(signal))
	p := dsp.PlanRFFT(n)
	sc.pad = growF(sc.pad, n)
	copy(sc.pad, signal)
	clear(sc.pad[len(signal):])
	sc.spec = growC(sc.spec, p.HalfLen())
	p.Transform(sc.spec, sc.pad)
	fLo := rx.CarrierHint - rx.CarrierSearch
	fHi := rx.CarrierHint + rx.CarrierSearch
	best, bestMag := -1, -1.0
	for i := 0; i <= n/2; i++ {
		f := float64(i) * rx.SampleRate / float64(n)
		if f < fLo || f > fHi {
			continue
		}
		if m := sc.binMag(i, len(signal)); m > bestMag {
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
	a, c := sc.binMag(best-1, len(signal)), sc.binMag(best+1, len(signal))
	return (float64(best) + peakOffset(a, bestMag, c)) * bin, nil
}

// binMag is the folded single-sided magnitude of bin i of the spectrum of
// an l-sample capture, as dsp.Spectrum computes it.
func (sc *feScratch) binMag(i, l int) float64 {
	m := cmplx.Abs(sc.spec[i]) / float64(l)
	if i != 0 && i != len(sc.spec)-1 {
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
// estimate, projected baseband ac (the reference basebandAC within 1e-9),
// and the ac prefix sums every matched-filter window reads from.
//
//ecolint:hotpath the once-per-capture front-end; all buffers come from pooled scratch
func (rx *ReaderRX) frontEnd(sc *feScratch, signal []float64) (float64, error) {
	fc, err := rx.estimateCarrierFast(sc, signal)
	if err != nil {
		return 0, err
	}
	n := len(signal)
	sc.n = n
	bw := rx.Bitrate*2 + rx.GuardBand

	// Down-convert: chunked-recurrence mixer + plan-cached low-pass.
	sc.mixed = growC(sc.mixed, n)
	dsp.MixDown(sc.mixed, signal, rx.SampleRate, fc)
	sc.bb = growC(sc.bb, n)
	lowpassFor(rx.SampleRate, bw).ApplyComplexTo(sc.bb, sc.mixed)
	bb := sc.bb[:n]

	// Moving-baseline leakage removal — identical arithmetic to the
	// reference (it already runs on complex prefix sums).
	w := int(4 * rx.SampleRate / rx.Bitrate)
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	sc.preC = growC(sc.preC, n+1)
	sc.preC[0] = 0
	for i, v := range bb {
		sc.preC[i+1] = sc.preC[i] + v
	}
	res := sc.mixed[:n] // the mixing buffer is free again
	for i := range bb {
		lo := i - w/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + w
		if hi > n {
			hi = n
			lo = hi - w
		}
		base := (sc.preC[hi] - sc.preC[lo]) / complex(float64(hi-lo), 0)
		res[i] = bb[i] - base
	}

	// Principal-axis projection with the envelope-anchored sign, exactly as
	// the reference.
	var sr, si float64
	for _, r := range res {
		re, im := real(r), imag(r)
		sr += re*re - im*im
		si += 2 * re * im
	}
	psi := 0.5 * math.Atan2(si, sr)
	cp, sp := math.Cos(psi), math.Sin(psi)
	sc.mag = growF(sc.mag, n)
	for i, v := range bb {
		sc.mag[i] = math.Hypot(real(v), imag(v))
	}
	magMean := dsp.Mean(sc.mag[:n])
	sc.ac = growF(sc.ac, n)
	var anchor float64
	for i, r := range res {
		a := real(r)*cp + imag(r)*sp
		sc.ac[i] = a
		anchor += a * (sc.mag[i] - magMean)
	}
	if anchor < 0 {
		for i := range sc.ac[:n] {
			sc.ac[i] = -sc.ac[i]
		}
	}

	// Prefix sums of ac: every half-symbol integral and pilot correlation
	// below becomes O(1) per window.
	sc.pre = growF(sc.pre, n+1)
	sc.pre[0] = 0
	for i, v := range sc.ac[:n] {
		sc.pre[i+1] = sc.pre[i] + v
	}
	return fc, nil
}

// meanWindow is dsp.Mean(ac[a:b]) through the prefix sums.
func (sc *feScratch) meanWindow(a, b int) float64 {
	return (sc.pre[b] - sc.pre[a]) / float64(b-a)
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
// the pooled trellis decoder, so warm calls allocate nothing.
//
//ecolint:hotpath matched filter + trellis decode on pooled buffers
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
// When dst has capacity for nBits and the front-end pools are warm, the
// whole decode performs zero steady-state allocations (FM0 coding; the
// Miller decoder still allocates its symbol buffer).
//
//ecolint:hotpath zero-alloc invariant guarded by TestDemodulateFrameIntoZeroAlloc
func (rx *ReaderRX) DemodulateFrameInto(dst []byte, signal []float64, nBits int) ([]byte, error) {
	sc := fePool.Get().(*feScratch)
	defer fePool.Put(sc)
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
//ecolint:hotpath per-window sync and demodulation on pooled scratch
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
	sc := fePool.Get().(*feScratch)
	defer fePool.Put(sc)
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
			//ecolint:ignore hotalloc each decoded payload escapes to the caller by contract; scratch bits are pooled
			Bits:  append([]byte(nil), sc.bits[len(PilotBits):]...),
			Start: start,
		}
	}
	return out
}
