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
		got, err := NewReaderRX(fs).demodulateFrame(rx, len(payload))
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
	got, err := NewReaderRX(fs).demodulateFrame(rx, len(payload))
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
		got, err := rx.demodulateFrame(capture, len(payload))
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
// inside the bin, where the bin grid alone is off by up to half a bin, and
// within a thousandth of a bin of the reference full-spectrum estimate.
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
		if err != nil || math.Abs(ref-got) > 1e-3*bin {
			t.Errorf("carrier %.2f Hz: reference estimate %v (%v), fast %v", f0, ref, err, got)
		}
	}
}

// TestCarrierEstimateMatchesOracle holds the band-limited estimate to the
// reference — the strongest bin of the full zero-padded spectrum, refined
// by peakOffset — within a thousandth of a bin: captures of 20k, 70,001
// and 315k samples (the round's length), carriers on a bin and between
// bins at 0, ±1.2, ±9.9 and ±19.5 kHz from the hint, noise σ = 0.01 and
// 0.05, and an equal-amplitude tone outside the search band where the
// block sums pass it most strongly: M − w/2 bins from the centre bin,
// aliased onto the band edge on the carrier's side.
func TestCarrierEstimateMatchesOracle(t *testing.T) {
	rx := NewReaderRX(fs)
	worst := 0.0
	for _, l := range []int{20000, 70001, 315000} {
		n := dsp.NextPow2(l)
		bin := fs / float64(n)
		lo, hi := rx.searchBins(n)
		w := hi - lo + 1
		m := n / bandDecimation(n, w)
		kc := (lo + hi) / 2
		for i, off := range []float64{0, 1.2e3, -1.2e3, 9.9e3, -9.9e3, 19.5e3, -19.5e3} {
			alias := float64(kc-(m-w/2)) + 0.5 // aliases onto the upper band edge
			if off < 0 {
				alias = float64(kc+(m-w/2)) + 0.5 // onto the lower one
			}
			if fa := alias * bin; fa >= rx.CarrierHint-rx.CarrierSearch && fa <= rx.CarrierHint+rx.CarrierSearch {
				t.Fatalf("n=%d: the aliasing tone %.0f Hz lies inside the search band", n, fa)
			}
			for _, frac := range []float64{0, 0.37} {
				f0 := (math.Round((rx.CarrierHint+off)/bin) + frac) * bin
				for _, sigma := range []float64{0.01, 0.05} {
					seed := int64(l + 10*i + int(100*frac) + int(1000*sigma))
					capture := make([]float64, l)
					ph0, ph1 := float64(seed%7), float64(seed%11)
					for t := range capture {
						ts := float64(t) / fs
						capture[t] = 0.4*math.Cos(2*math.Pi*f0*ts+ph0) + 0.4*math.Cos(2*math.Pi*alias*bin*ts+ph1)
					}
					dsp.NewNoiseSource(seed).AddAWGN(capture, sigma)
					ref, err := rx.estimateCarrier(capture)
					if err != nil {
						t.Fatal(err)
					}
					got, err := rx.estimateCarrierFast(&feScratch{}, capture)
					if err != nil {
						t.Fatal(err)
					}
					d := math.Abs(got-ref) / bin
					worst = max(worst, d)
					if d > 1e-3 {
						t.Errorf("len %d, carrier %.2f Hz, σ=%.2f: estimate %.4f Hz, reference %.4f Hz: %.2g bin apart, want ≤ 1e-3",
							l, f0, sigma, got, ref, d)
					}
					if math.Abs(ref-f0) > 0.1*bin {
						t.Errorf("len %d, carrier %.2f Hz, σ=%.2f: reference estimate %.4f Hz is off the carrier", l, f0, sigma, ref)
					}
				}
			}
		}
	}
	t.Logf("largest gap to the reference: %.2g bin", worst)
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
