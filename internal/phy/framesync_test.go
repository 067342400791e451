package phy

import (
	"bytes"
	"math"
	"testing"

	"ecocapsule/internal/dsp"
	"ecocapsule/internal/units"
	"ecocapsule/internal/waveform"
)

// buildCapture renders a capture with leakage pedestal, a silent lead-in of
// leadMS milliseconds, then a pilot-prefixed FM0 backscatter frame.
func buildCapture(t *testing.T, payload []byte, leadMS float64, noiseSigma float64, seed int64) []float64 {
	t.Helper()
	syn := waveform.NewSynth(fs)
	btx := NewBackscatterTX(fs)
	bits := PrependPilot(payload)
	frameDur := float64(len(bits)) / btx.Bitrate
	total := leadMS*units.MS + frameDur + 2e-3
	carrier := syn.CBW(230e3, 1.0, total)
	bs, err := btx.Modulate(bits, syn.CBW(230e3, 1.0, frameDur+units.MS))
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]float64, len(carrier))
	lead := syn.Samples(leadMS * units.MS)
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

func TestSynchronizeFindsFrameStart(t *testing.T) {
	payload := []byte{1, 1, 0, 1, 0, 0, 1, 0}
	lead := 3.0 // ms
	rx := buildCapture(t, payload, lead, 0.01, 1)
	rrx := NewReaderRX(fs)
	start, err := rrx.synchronize(rx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantStart := int(lead * 1e-3 * fs)
	tol := int(fs / (2 * rrx.Bitrate) / 2) // half a half-symbol
	if start < wantStart-tol || start > wantStart+tol {
		t.Errorf("sync at sample %d, want ≈%d (±%d)", start, wantStart, tol)
	}
}

func TestDemodulateFrameEndToEnd(t *testing.T) {
	payload := []byte{1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0}
	for _, lead := range []float64{1, 4, 7} {
		rx := buildCapture(t, payload, lead, 0.01, int64(lead))
		got, err := NewReaderRX(fs).DemodulateFrame(rx, len(payload))
		if err != nil {
			t.Fatalf("lead %v ms: %v", lead, err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("lead %v ms: got %v want %v", lead, got, payload)
		}
	}
}

func TestDemodulateFrameNoisy(t *testing.T) {
	payload := []byte{0, 1, 1, 0, 1, 0, 1, 1}
	rx := buildCapture(t, payload, 2.5, 0.04, 9)
	got, err := NewReaderRX(fs).DemodulateFrame(rx, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("noisy frame: got %v want %v", got, payload)
	}
}

func TestSynchronizeRejectsCarrierOnly(t *testing.T) {
	// Pure CBW with no backscatter must not sync.
	syn := waveform.NewSynth(fs)
	rx := syn.CBW(230e3, 0.4, 20e-3)
	dsp.NewNoiseSource(3).AddAWGN(rx, 0.005)
	if _, err := NewReaderRX(fs).synchronize(rx, 0); err == nil {
		t.Error("carrier-only capture must fail to sync")
	}
}

func TestSynchronizeShortCapture(t *testing.T) {
	syn := waveform.NewSynth(fs)
	rx := syn.CBW(230e3, 1, 0.5e-3)
	if _, err := NewReaderRX(fs).synchronize(rx, 0); err == nil {
		t.Error("capture shorter than the pilot must fail")
	}
}

func TestPrependPilot(t *testing.T) {
	p := PrependPilot([]byte{1, 1})
	if len(p) != len(PilotBits)+2 {
		t.Fatalf("length %d", len(p))
	}
	for i, b := range PilotBits {
		if p[i] != b {
			t.Fatal("pilot must lead the frame")
		}
	}
	if p[len(p)-1] != 1 || p[len(p)-2] != 1 {
		t.Error("payload must follow")
	}
	// The input slice must not be aliased.
	payload := []byte{0, 0}
	out := PrependPilot(payload)
	out[len(PilotBits)] = 1
	if payload[0] == 1 {
		t.Error("PrependPilot must copy")
	}
}

// TestPilotSearchLeavesRoomForFrame embeds a copy of the pilot early in
// the payload, so that a noisy capture can correlate with the copy better
// than with the true pilot. The copy starts inside the first half of the
// capture, but a frame starting there would run past its end: the search
// must stop at the last start that leaves room for the frame. Without that
// bound about one case in five failed with "capture shorter than the frame".
func TestPilotSearchLeavesRoomForFrame(t *testing.T) {
	payload := []byte{0, 1}
	payload = append(payload, PilotBits...)
	for i := 0; i < 16; i++ {
		payload = append(payload, byte(i%3&1))
	}
	rx := equivRX()
	for seed := int64(0); seed < 32; seed++ {
		capture := buildCaptureAt(t, rx.SampleRate, rx.CarrierHint, payload, 1e-3, 0.1, seed)
		got, err := rx.DemodulateFrame(capture, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("seed %d: got %v, %v; want the payload", seed, got, err)
			continue
		}
		ref, err := rx.demodulateFrameReference(capture, len(payload))
		if err != nil || !bytes.Equal(ref, payload) {
			t.Errorf("seed %d: reference got %v, %v; want the payload", seed, ref, err)
		}
	}
}

// TestCarrierEstimateBetweenBins places the carrier at fractions of a bin
// of the zero-padded capture spectrum: the refined estimate must land well
// inside the bin, where the bin grid alone is off by up to half a bin.
func TestCarrierEstimateBetweenBins(t *testing.T) {
	rx := NewReaderRX(fs)
	syn := waveform.NewSynth(fs)
	const dur = 30e-3
	n := dsp.NextPow2(syn.Samples(dur))
	bin := fs / float64(n)
	for _, frac := range []float64{0, 0.2, 0.5, 0.7} {
		f0 := (math.Round(230e3/bin) + frac) * bin
		capture := syn.CBW(f0, 0.4, dur)
		got, err := rx.frontEnd(&feScratch{}, capture)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got - f0); d > 0.1*bin {
			t.Errorf("carrier %.2f Hz (bin %+.1f): estimate %.2f Hz is %.2f Hz off, want ≤ %.2f",
				f0, frac, got, d, 0.1*bin)
		}
		ref, err := rx.estimateCarrier(capture)
		if err != nil || ref != got {
			t.Errorf("carrier %.2f Hz: reference estimate %v (%v), fast %v", f0, ref, err, got)
		}
	}
}

func TestPeakOffset(t *testing.T) {
	if d := peakOffset(1, 2, 1); d != 0 {
		t.Errorf("symmetric neighbours: offset %v, want 0", d)
	}
	if d := peakOffset(1.5, 2, 1); d >= 0 || d < -0.5 {
		t.Errorf("stronger left neighbour: offset %v, want in [-0.5, 0)", d)
	}
	if d := peakOffset(1, 2, 1.5); d <= 0 || d > 0.5 {
		t.Errorf("stronger right neighbour: offset %v, want in (0, 0.5]", d)
	}
	for _, c := range [][3]float64{{0, 2, 1}, {1, 2, 0}, {3, 2, 1}, {1, 1, 1}} {
		if d := peakOffset(c[0], c[1], c[2]); d != 0 {
			t.Errorf("peakOffset%v = %v, want 0 (no interior maximum)", c, d)
		}
	}
}
