package phy

import (
	"bytes"
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
	bs, err := btx.Modulate(bits, syn.CBW(230e3, 1.0, frameDur+1e-3))
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
