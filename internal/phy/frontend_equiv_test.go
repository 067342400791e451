package phy

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"runtime"
	"testing"

	"ecocapsule/internal/dsp"
	"ecocapsule/internal/units"
	"ecocapsule/internal/waveform"
)

// The full-rate oracle (the production stages at D = 1 on
// dsp.ConvolveComplex: shared front-end + prefix-sum matched filtering)
// must be indistinguishable from the retained reference chain: identical
// sync offsets, bit-identical decoded symbols, and a projected baseband
// within 1e-9 per sample. The battery here draws seeded random payloads,
// frame offsets and noise levels at a reduced sample rate so the O(n·taps)
// reference stays affordable across 200+ cases. The decimating production
// front end is held to the oracle by the battery (same payloads, sync
// within 2 samples), the kept-index filter bound and the BER parity test
// below, and to the full-rate decode outcomes by the reader's golden
// corpus.

// oracle is the full-rate front end the battery pins to the reference.
var oracle frontEndFunc = (*ReaderRX).frontEndFullRate

// equivRX returns a reader chain at a reduced rate (250 kS/s, 60 kHz
// carrier) so reference decodes stay cheap in the battery.
func equivRX() *ReaderRX {
	return &ReaderRX{
		SampleRate:    250e3,
		CarrierHint:   60e3,
		CarrierSearch: 10e3,
		Bitrate:       1 * units.KHz,
		GuardBand:     500,
	}
}

// buildCaptureAt renders a leakage-pedestal capture at an arbitrary sample
// rate and carrier: silent lead-in, then a pilot-prefixed 1 kbps FM0 frame.
func buildCaptureAt(t *testing.T, fsHz, fcHz float64, payload []byte, leadS, noiseSigma float64, seed int64) []float64 {
	t.Helper()
	return buildCaptureAtRate(t, fsHz, fcHz, 1000, payload, leadS, noiseSigma, seed)
}

// buildCaptureAtRate is buildCaptureAt at the given uplink bitrate.
func buildCaptureAtRate(t *testing.T, fsHz, fcHz, bitrate float64, payload []byte, leadS, noiseSigma float64, seed int64) []float64 {
	t.Helper()
	syn := waveform.NewSynth(fsHz)
	btx := NewBackscatterTX(fsHz)
	btx.Bitrate = bitrate
	bits := PrependPilot(payload)
	frameDur := float64(len(bits)) / btx.Bitrate
	total := leadS + frameDur + 2e-3
	carrier := syn.CBW(fcHz, 1.0, total)
	bs, err := btx.Modulate(bits, syn.CBW(fcHz, 1.0, frameDur+units.MS))
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]float64, len(carrier))
	lead := syn.Samples(leadS)
	for i := range rx {
		rx[i] = 0.4 * carrier[i]
		if j := i - lead; j >= 0 && j < len(bs) {
			rx[i] += bs[j]
		}
	}
	if noiseSigma > 0 {
		dsp.NewNoiseSource(seed).AddAWGN(rx, noiseSigma)
	}
	return rx
}

// TestFastDecodeMatchesReferenceBattery pins the oracle to the reference:
// 200+ seeded randomized captures, each decoded by both chains, asserting
// identical sync offsets and bit-identical payloads. Production must decode
// the oracle's payloads too, with its sync start within 2 samples.
func TestFastDecodeMatchesReferenceBattery(t *testing.T) {
	cases := 210
	if testing.Short() {
		cases = 40
	}
	rng := dsp.NewNoiseSource(7)
	ran := 0
	for trial := 0; trial < cases; trial++ {
		nBits := 4 + trial%13
		payload := make([]byte, nBits)
		for i := range payload {
			if rng.Gaussian(1) > 0 {
				payload[i] = 1
			}
		}
		lead := 1e-3 + math.Abs(rng.Gaussian(1))*1.5e-3
		sigma := []float64{0, 0.005, 0.02, 0.05}[trial%4]
		capture := buildCaptureAt(t, 250e3, 60e3, payload, lead, sigma, int64(trial))
		rx := equivRX()

		refStart, refSyncErr := rx.synchronizeReference(capture, 0)
		gotStart, gotSyncErr := rx.synchronizeOn(oracle, capture, 0)
		if (refSyncErr == nil) != (gotSyncErr == nil) || gotStart != refStart {
			t.Fatalf("trial %d: sync fast (%d, %v) != reference (%d, %v)",
				trial, gotStart, gotSyncErr, refStart, refSyncErr)
		}

		refBits, refErr := rx.demodulateFrameReference(capture, nBits)
		gotBits, gotErr := rx.demodulateFrameOn(oracle, capture, nBits)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: frame err fast %v != reference %v", trial, gotErr, refErr)
		}
		if !bytes.Equal(gotBits, refBits) {
			t.Fatalf("trial %d: payload fast %v != reference %v", trial, gotBits, refBits)
		}
		if refSyncErr == nil {
			ran++
		}

		// The decimating production front end decodes what the oracle
		// decodes, and syncs within a sample or two of it.
		prodStart, prodSyncErr := rx.synchronize(capture, 0)
		if (prodSyncErr == nil) != (gotSyncErr == nil) || (gotSyncErr == nil && abs(prodStart-gotStart) > 2) {
			t.Fatalf("trial %d: sync decimated (%d, %v) vs oracle (%d, %v)",
				trial, prodStart, prodSyncErr, gotStart, gotSyncErr)
		}
		prodBits, prodErr := rx.demodulateFrame(capture, nBits)
		if (prodErr == nil) != (gotErr == nil) || !bytes.Equal(prodBits, gotBits) {
			t.Fatalf("trial %d: payload decimated (%v, %v) vs oracle (%v, %v)", trial, prodBits, prodErr, gotBits, gotErr)
		}

		if refSyncErr == nil {
			// Direct Demodulate at an explicit offset must agree too.
			refRaw, e1 := rx.demodulateReference(capture, refStart, nBits)
			gotRaw, e2 := rx.demodulateOn(oracle, capture, refStart, nBits)
			if (e1 == nil) != (e2 == nil) || !bytes.Equal(gotRaw, refRaw) {
				t.Fatalf("trial %d: Demodulate fast (%v,%v) != reference (%v,%v)",
					trial, gotRaw, e2, refRaw, e1)
			}
		}
	}
	// The battery is only meaningful if most captures actually synchronise.
	if ran < cases/2 {
		t.Fatalf("only %d/%d captures synchronised; battery too weak", ran, cases)
	}
}

// TestFastBasebandWithin1e9 pins the per-sample 1e-9 bound between the
// oracle front-end's projected baseband and the reference basebandAC
// down-converted at the same carrier, the production estimate (which
// TestCarrierEstimateMatchesOracle holds to the reference estimate).
func TestFastBasebandWithin1e9(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		capture := buildCaptureAt(t, 250e3, 60e3, []byte{1, 0, 1, 1, 0, 0, 1, 0}, 2e-3, 0.02, seed)
		rx := equivRX()
		sc := &feScratch{}
		fc, err := rx.frontEndFullRate(sc, capture)
		if err != nil {
			t.Fatal(err)
		}
		want := rx.basebandAC(capture, fc)
		got := sc.ac[:sc.m]
		if len(got) != len(want) {
			t.Fatalf("seed %d: ac length %d vs %d", seed, len(got), len(want))
		}
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-9 {
				t.Fatalf("seed %d sample %d: fast %g vs reference %g (|Δ|=%g)",
					seed, i, got[i], want[i], d)
			}
		}
	}
}

// TestFastDecodeMatchesReferenceFullRate runs a handful of oracle cases at
// the real 1 MS/s / 230 kHz operating point so the battery's reduced rate
// can't mask a rate-dependent divergence.
func TestFastDecodeMatchesReferenceFullRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-rate reference decode is slow")
	}
	for seed := int64(0); seed < 3; seed++ {
		payload := []byte{1, 0, 0, 1, 1, 0, 1, 0}
		capture := buildCaptureAt(t, fs, 230e3, payload, 2e-3, 0.01, seed)
		rx := NewReaderRX(fs)
		refBits, refErr := rx.demodulateFrameReference(capture, len(payload))
		gotBits, gotErr := rx.demodulateFrameOn(oracle, capture, len(payload))
		if (refErr == nil) != (gotErr == nil) || !bytes.Equal(gotBits, refBits) {
			t.Fatalf("seed %d: fast (%v,%v) != reference (%v,%v)",
				seed, gotBits, gotErr, refBits, refErr)
		}
		if refErr != nil {
			t.Fatalf("seed %d: full-rate reference failed to decode: %v", seed, refErr)
		}
	}
}

// buildRoundAt renders a TDMA round capture at the given sample rate and
// carrier: one slot per payload (all of one length), each a pilot-prefixed
// 1 kbps FM0 frame led in by 1–2.4 ms and followed by a 6 ms guard, over
// the 0.4 leakage pedestal, with noise σ drawn from seed. It returns the
// capture and its slot windows.
func buildRoundAt(t *testing.T, fsHz, fcHz float64, payloads [][]byte, sigma float64, seed int64) ([]float64, []Slot) {
	t.Helper()
	syn := waveform.NewSynth(fsHz)
	btx := NewBackscatterTX(fsHz)
	nBits := len(payloads[0])
	frameDur := float64(len(PilotBits)+nBits) / btx.Bitrate
	slotDur := frameDur + 6e-3
	slotLen := syn.Samples(slotDur)
	capture := make([]float64, len(payloads)*slotLen)
	carrier := syn.CBW(fcHz, 1.0, float64(len(payloads))*slotDur)
	for i := range capture {
		capture[i] = 0.4 * carrier[i]
	}
	slots := make([]Slot, len(payloads))
	for s, payload := range payloads {
		bs, err := btx.Modulate(PrependPilot(payload), syn.CBW(fcHz, 1.0, frameDur+units.MS))
		if err != nil {
			t.Fatal(err)
		}
		base := s*slotLen + syn.Samples(1e-3+float64(s%3)*0.7e-3)
		for i, v := range bs {
			capture[base+i] += v
		}
		slots[s] = Slot{Start: s * slotLen, Len: slotLen, NBits: nBits}
	}
	dsp.NewNoiseSource(seed).AddAWGN(capture, sigma)
	return capture, slots
}

// TestDemodulateSlotsMatchesPerSlotReference builds a multi-slot TDMA round
// capture and checks the batched decode against the per-slot reference —
// demodulateFrameReference over each slot's sub-capture — bit for bit.
func TestDemodulateSlotsMatchesPerSlotReference(t *testing.T) {
	const (
		fsHz   = 250e3
		fcHz   = 60e3
		nSlots = 4
		nBits  = 8
	)
	rng := dsp.NewNoiseSource(99)
	for round := 0; round < 6; round++ {
		payloads := make([][]byte, nSlots)
		for s := range payloads {
			payloads[s] = make([]byte, nBits)
			for i := range payloads[s] {
				if rng.Gaussian(1) > 0 {
					payloads[s][i] = 1
				}
			}
		}
		capture, slots := buildRoundAt(t, fsHz, fcHz, payloads, 0.01, int64(round))

		rx := equivRX()
		got := rx.DemodulateSlots(capture, slots)
		if len(got) != nSlots {
			t.Fatalf("round %d: %d results for %d slots", round, len(got), nSlots)
		}
		for s, sl := range slots {
			want, refErr := rx.demodulateFrameReference(capture[sl.Start:sl.Start+sl.Len], nBits)
			if refErr != nil {
				t.Fatalf("round %d slot %d: reference decode failed: %v", round, s, refErr)
			}
			if got[s].Err != nil {
				t.Fatalf("round %d slot %d: batched decode failed: %v", round, s, got[s].Err)
			}
			if !bytes.Equal(got[s].Bits, want) {
				t.Fatalf("round %d slot %d: batched %v != per-slot reference %v",
					round, s, got[s].Bits, want)
			}
			if !bytes.Equal(want, payloads[s]) {
				t.Fatalf("round %d slot %d: reference %v != transmitted %v",
					round, s, want, payloads[s])
			}
		}
	}
}

// TestDemodulateSlotsRejectsBadWindows pins the slot-window validation:
// each window outside the capture fails and counts one error outcome.
func TestDemodulateSlotsRejectsBadWindows(t *testing.T) {
	capture := buildCaptureAt(t, 250e3, 60e3, []byte{1, 0, 1, 0}, 1e-3, 0, 1)
	rx := equivRX()
	before := cDemodError.Value()
	out := rx.DemodulateSlots(capture, []Slot{
		{Start: -1, Len: 100, NBits: 4},
		{Start: 0, Len: len(capture) + 1, NBits: 4},
		{Start: 50, Len: 0, NBits: 4},
	})
	for i, r := range out {
		if r.Err == nil {
			t.Errorf("slot %d: expected window error", i)
		}
	}
	if got := cDemodError.Value() - before; got != float64(len(out)) {
		t.Errorf("%d bad windows counted %v error outcomes, want %d", len(out), got, len(out))
	}
	if out := rx.DemodulateSlots(capture, nil); len(out) != 0 {
		t.Errorf("nil slots returned %d results", len(out))
	}
}

// TestDemodulateSlotsCountsFrontEndFailure decodes a k-slot round whose
// front end finds no carrier — the reader searches a band above the
// capture's Nyquist frequency — and requires every slot to fail with
// ErrNoCarrier and count one no_sync outcome.
func TestDemodulateSlotsCountsFrontEndFailure(t *testing.T) {
	payloads := [][]byte{{1, 0, 1, 1}, {0, 1, 1, 0}, {1, 1, 0, 0}}
	capture, slots := buildRoundAt(t, 250e3, 60e3, payloads, 0.01, 1)
	rx := equivRX()
	rx.CarrierHint = 0.6 * rx.SampleRate
	before := cDemodNoSync.Value()
	for s, r := range rx.DemodulateSlots(capture, slots) {
		if !errors.Is(r.Err, ErrNoCarrier) {
			t.Errorf("slot %d: err %v, want ErrNoCarrier", s, r.Err)
		}
	}
	if got := cDemodNoSync.Value() - before; got != float64(len(slots)) {
		t.Errorf("a failed front end over %d slots counted %v no_sync outcomes, want %d", len(slots), got, len(slots))
	}
}

// TestDemodulateSlotsAllocs pins the warm batched decode — production's
// only uplink decode entry — at exactly its product: the result slice and
// one payload copy per decoded slot. A failed slot (here one outside the
// capture) costs nothing, and the front end runs on recycled scratch.
func TestDemodulateSlotsAllocs(t *testing.T) {
	payloads := [][]byte{{1, 0, 0, 1, 1, 0, 1, 0}, {0, 1, 1, 0, 1, 1, 0, 0}, {1, 1, 0, 1, 0, 0, 0, 1}}
	capture, slots := buildRoundAt(t, 250e3, 60e3, payloads, 0.01, 3)
	slots = append(slots, Slot{Start: len(capture), Len: 1, NBits: 8})
	rx := equivRX()
	for s, r := range rx.DemodulateSlots(capture, slots) { // warms the scratch free list
		if s < len(payloads) && (r.Err != nil || !bytes.Equal(r.Bits, payloads[s])) {
			t.Fatalf("slot %d: decoded %v (%v), want %v", s, r.Bits, r.Err, payloads[s])
		}
		if s == len(payloads) && r.Err == nil {
			t.Fatalf("slot %d outside the capture decoded", s)
		}
	}
	want := float64(1 + len(payloads))
	if allocs := testing.AllocsPerRun(10, func() {
		rx.DemodulateSlots(capture, slots)
	}); allocs != want {
		t.Errorf("warm DemodulateSlots allocated %.1f objects/op, want %v (the result slice and %d payloads)", allocs, want, len(payloads))
	}
}

// buildRound315k renders the acoustic_round workload's capture shape at
// 1 MS/s: three 105000-sample slots of a 2 kbps uplink, each a 16-bit
// payload led in by 2 ms over the 0.4 leakage pedestal, with noise σ 0.01.
// It returns the receive chain, the capture, its slots and the payloads.
func buildRound315k(tb testing.TB) (*ReaderRX, []float64, []Slot, [][]byte) {
	tb.Helper()
	const (
		nSlots  = 3
		slotLen = 105000
		nBits   = 16
	)
	rx := NewReaderRX(fs)
	rx.Bitrate = 2000
	syn := waveform.NewSynth(fs)
	btx := NewBackscatterTX(fs)
	btx.Bitrate = rx.Bitrate
	frameDur := float64(len(PilotBits)+nBits) / btx.Bitrate
	capture := syn.CBW(rx.CarrierHint, 1.0, float64(nSlots*slotLen)/fs)[:nSlots*slotLen]
	for i := range capture {
		capture[i] *= 0.4
	}
	rng := dsp.NewNoiseSource(3)
	payloads := make([][]byte, nSlots)
	slots := make([]Slot, nSlots)
	for s := range slots {
		payloads[s] = make([]byte, nBits)
		for i := range payloads[s] {
			payloads[s][i] = byte(rng.Intn(2))
		}
		bs, err := btx.Modulate(PrependPilot(payloads[s]), syn.CBW(rx.CarrierHint, 1.0, frameDur+units.MS))
		if err != nil {
			tb.Fatal(err)
		}
		base := s*slotLen + syn.Samples(2e-3)
		for i, v := range bs {
			capture[base+i] += v
		}
		slots[s] = Slot{Start: s * slotLen, Len: slotLen, NBits: nBits}
	}
	dsp.NewNoiseSource(4).AddAWGN(capture, 0.01)
	return rx, capture, slots, payloads
}

// BenchmarkPilotSearchRound times the pilot search of the three slots of
// a 315k-sample 2 kbps round on its decoded front end: the strided
// prefix-sum reads of syncWindow.
func BenchmarkPilotSearchRound(b *testing.B) {
	rx, capture, slots, _ := buildRound315k(b)
	sc := new(feScratch)
	if _, err := rx.frontEnd(sc, capture); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, sl := range slots {
			limit := rx.frameSearchLimit(sl.Len, sl.NBits)
			if _, err := rx.syncWindow(sc, sl.Start, sl.Start+sl.Len, limit); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestFrontEndScratchBounded decodes a 315k-sample, three-slot 2 kbps
// round at 1 MS/s on a fresh scratch: no complex buffer the front end
// keeps is longer than the carrier band's M-bin spectrum or the kept
// baseband plus one mixing segment, M is 65536 (D = 8 on the 2^19 grid),
// and the cold decode allocates less than the root table of a 2^19-point
// RFFT plan alone (4 MB), so it builds none.
func TestFrontEndScratchBounded(t *testing.T) {
	rx, capture, slots, payloads := buildRound315k(t)
	for feScratches.Len() > 0 {
		feScratches.Get() // the round below builds a fresh scratch
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := rx.DemodulateSlots(capture, slots)
	runtime.ReadMemStats(&after)
	for s, r := range got {
		if r.Err != nil || !bytes.Equal(r.Bits, payloads[s]) {
			t.Fatalf("slot %d: decoded %v (%v), want %v", s, r.Bits, r.Err, payloads[s])
		}
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Errorf("a cold round decode allocated %.2f MB, want < 4 MB", float64(alloc)/(1<<20))
	}

	sc := feScratches.Get()
	defer feScratches.Put(sc)
	n := dsp.NextPow2(len(capture))
	lo, hi := rx.searchBins(n)
	m := n / bandDecimation(n, hi-lo+1)
	if m != 65536 {
		t.Errorf("carrier band spectrum of %d bins on the %d grid, want 65536", m, n)
	}
	limit := max(m, (len(capture)+sc.d-1)/sc.d+mixSegment)
	for name, b := range map[string][]complex128{
		"spec": sc.spec, "roots": sc.roots, "seg": sc.seg, "bb": sc.bb, "preC": sc.preC, "res": sc.res,
	} {
		if cap(b) > limit {
			t.Errorf("scratch %s holds %d complex samples, want <= %d", name, cap(b), limit)
		}
	}
}

// TestConcurrentDecodeSharedReader exercises the shared plan caches and
// scratch free lists from concurrent goroutines (meaningful under -race): every
// goroutine must reproduce the single-threaded decode exactly.
func TestConcurrentDecodeSharedReader(t *testing.T) {
	payload := []byte{1, 1, 0, 1, 0, 0, 1, 0}
	capture := buildCaptureAt(t, 250e3, 60e3, payload, 2e-3, 0.02, 5)
	rx := equivRX()
	want, err := rx.demodulateFrame(capture, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < 5; i++ {
				got, err := rx.demodulateFrame(capture, len(payload))
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(got, want) {
					errc <- ErrNoSync
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker failed: %v", err)
		}
	}
}

// TestDecimatedLowPassMatchesConvolveAtKeptIndices pins the production
// front end's filter stage: at the 1 MS/s operating point and the 250 kS/s
// battery rate, kept sample k equals the full-rate dsp.ConvolveComplex
// low-pass of the mixed capture at the centre of its block, capture index
// k·D + (D−1)/2, within 1e-9.
func TestDecimatedLowPassMatchesConvolveAtKeptIndices(t *testing.T) {
	for _, c := range []struct {
		rx      *ReaderRX
		bitrate float64
	}{{NewReaderRX(fs), 1000}, {NewReaderRX(fs), 2000}, {equivRX(), 1000}} {
		rx := c.rx
		rx.Bitrate = c.bitrate
		capture := buildCaptureAtRate(t, rx.SampleRate, rx.CarrierHint, rx.Bitrate, []byte{1, 0, 1, 1, 0, 0, 1, 0}, 2e-3, 0.02, 1)
		sc := &feScratch{}
		fc, err := rx.frontEnd(sc, capture)
		if err != nil {
			t.Fatal(err)
		}
		if sc.d < 2 {
			t.Fatalf("%.0f bit/s at %.0f S/s: decimation %d, want a decimating front end", c.bitrate, rx.SampleRate, sc.d)
		}
		if sc.m != (len(capture)+sc.d-1)/sc.d {
			t.Fatalf("%d kept samples of %d at D=%d", sc.m, len(capture), sc.d)
		}
		mixed := make([]complex128, sc.m*sc.d) // zero-padded to whole blocks
		dsp.MixDown(mixed, capture, rx.SampleRate, fc)
		want := dsp.ConvolveComplex(mixed, dsp.FIRLowPass(rx.SampleRate, rx.Bitrate*2+rx.GuardBand, lowpassTaps))
		for k, v := range sc.bb[:sc.m] {
			i := k*sc.d + (sc.d-1)/2
			if diff := cmplx.Abs(v - want[i]); diff > 1e-9 {
				t.Fatalf("%.0f bit/s D=%d kept %d: %v vs %v (|Δ|=%g)", c.bitrate, sc.d, k, v, want[i], diff)
			}
		}
	}
}

// TestDecimationDerivedFromFilterAndBitrate pins the two rules D obeys: the
// kernel's stopband edge (cutoff + half the 3.3·fs/taps Hamming transition)
// stays below fs/D − bw, and a half-symbol keeps at least minHalfSamples
// kept samples. D is the largest factor meeting both.
func TestDecimationDerivedFromFilterAndBitrate(t *testing.T) {
	ok := func(rx *ReaderRX, d int) bool {
		bw := rx.Bitrate*2 + rx.GuardBand
		stop := bw + 0.5*3.3*rx.SampleRate/lowpassTaps
		return stop < rx.SampleRate/float64(d)-bw && rx.SampleRate/(2*rx.Bitrate)/float64(d) >= minHalfSamples
	}
	for _, c := range []struct {
		fs, bitrate float64
		want        int
	}{
		{fs, 1000, 46}, {fs, 2000, 31}, {fs, 3000, 20}, {fs, 4000, 15}, {fs, 8000, 7},
		{250e3, 1000, 15}, {fs, 1e9, 1},
	} {
		rx := NewReaderRX(c.fs)
		rx.Bitrate = c.bitrate
		d := rx.decimation()
		if d != c.want {
			t.Errorf("%.0f S/s, %.0f bit/s: D = %d, want %d", c.fs, c.bitrate, d, c.want)
		}
		if d > 1 && (!ok(rx, d) || ok(rx, d+1)) {
			t.Errorf("%.0f S/s, %.0f bit/s: D = %d is not the largest factor meeting both rules", c.fs, c.bitrate, d)
		}
	}
}

// sigmaForSNR is the capture noise σ that puts buildCaptureAt's FM0 halves
// at snrDB per bit in link.MeasureBER's convention (unit halves, per-half
// noise σ_h, SNR = 1/σ_h²). The 0.45/0.03 reflect/absorb gains swing the
// mixed-down baseband by 0.21, so the projected halves sit at ±0.105; the
// real capture noise puts σ²/2 on that axis, and a half-symbol integral
// averages it over fs/(2·bitrate) samples.
func sigmaForSNR(rx *ReaderRX, snrDB float64) float64 {
	half := rx.SampleRate / (2 * rx.Bitrate)
	return 0.105 * math.Sqrt(2*half) * math.Pow(10, -snrDB/20)
}

// TestBERParityWithFullRateOracle holds the decimating front end to the
// full-rate oracle's bit-error rate at Fig. 15 SNR points, at the 2 kbps
// acoustic_round operating point. Each capture is demodulated by both from
// the true frame start, as Fig. 15's waterfall counts bit errors of
// synchronised frames. The two BERs must agree within three standard
// errors of a two-proportion test, 3·√(2·p̄(1−p̄)/N) + 1/N over N bits
// each, which treats the paired decisions as independent and so overstates
// the spread.
func TestBERParityWithFullRateOracle(t *testing.T) {
	frames := 24
	if testing.Short() {
		frames = 6
	}
	const nBits = 64
	rx := NewReaderRX(fs)
	rx.Bitrate = 2000
	rng := dsp.NewNoiseSource(15)
	for _, snr := range []float64{0, 2, 4, 6, 8} {
		sigma := sigmaForSNR(rx, snr)
		var prodErrs, oracleErrs, bits int
		for f := 0; f < frames; f++ {
			payload := make([]byte, nBits)
			for i := range payload {
				payload[i] = byte(rng.Intn(2))
			}
			lead := 1e-3 + rng.Uniform()*1e-3
			capture := buildCaptureAtRate(t, fs, 230e3, rx.Bitrate, payload, lead, sigma, int64(1000*snr)+int64(f))
			start := waveform.NewSynth(fs).Samples(lead)
			n := len(PilotBits) + nBits
			for _, fe := range []struct {
				run  frontEndFunc
				errs *int
			}{{oracle, &oracleErrs}, {(*ReaderRX).frontEnd, &prodErrs}} {
				got, err := rx.demodulateOn(fe.run, capture, start, n)
				if err != nil {
					t.Fatalf("%.0f dB: %v", snr, err)
				}
				*fe.errs += hamming(got[len(PilotBits):], payload)
			}
			bits += nBits
		}
		pProd, pOracle := float64(prodErrs)/float64(bits), float64(oracleErrs)/float64(bits)
		pBar := (pProd + pOracle) / 2
		tol := 3*math.Sqrt(2*pBar*(1-pBar)/float64(bits)) + 1/float64(bits)
		t.Logf("%2.0f dB (σ=%.3f): BER decimated %.4f, oracle %.4f over %d bits (tolerance %.4f)", snr, sigma, pProd, pOracle, bits, tol)
		if math.Abs(pProd-pOracle) > tol {
			t.Errorf("%.0f dB: BER decimated %.4f vs oracle %.4f differs by more than %.4f", snr, pProd, pOracle, tol)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// hamming counts the positions where a and b differ.
func hamming(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
