package waveform

import (
	"math"
	"testing"
	"testing/quick"

	"ecocapsule/internal/coding"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/units"
)

const fs = units.MHz // 1 MS/s, the evaluation's oscilloscope rate

func TestSamples(t *testing.T) {
	s := NewSynth(fs)
	if s.Samples(1e-3) != 1000 {
		t.Errorf("1 ms at 1 MS/s = %d samples, want 1000", s.Samples(1e-3))
	}
	if s.Samples(-1) != 0 {
		t.Error("negative duration must yield 0 samples")
	}
}

func TestTonePhaseContinuity(t *testing.T) {
	s := NewSynth(fs)
	a, ph := s.Tone(230e3, 1, 0.5e-3, 0)
	b, _ := s.Tone(230e3, 1, 0.5e-3, ph)
	joined := append(append([]float64(nil), a...), b...)
	full, _ := s.Tone(230e3, 1, 1e-3, 0)
	if len(joined) != len(full) {
		t.Fatalf("length mismatch %d vs %d", len(joined), len(full))
	}
	for i := range full {
		if math.Abs(joined[i]-full[i]) > 1e-9 {
			t.Fatalf("phase discontinuity at sample %d", i)
		}
	}
}

func TestToneAmplitudeAndFrequency(t *testing.T) {
	s := NewSynth(fs)
	x, _ := s.Tone(230e3, 2.5, 4e-3, 0)
	if m := dsp.MaxAbs(x); math.Abs(m-2.5) > 0.01 {
		t.Errorf("peak %g, want 2.5", m)
	}
	if f := dsp.PeakFrequency(x, fs, 100e3, 400e3); math.Abs(f-230e3) > 500 {
		t.Errorf("tone frequency %g, want 230 kHz", f)
	}
}

func TestCBW(t *testing.T) {
	s := NewSynth(fs)
	x := s.CBW(230e3, 1, 2e-3)
	if len(x) != 2000 {
		t.Fatalf("CBW length %d", len(x))
	}
	if math.Abs(dsp.RMS(x)-1/math.Sqrt2) > 0.01 {
		t.Errorf("CBW RMS %g, want ≈0.707", dsp.RMS(x))
	}
}

func TestRingTailDecays(t *testing.T) {
	s := NewSynth(fs)
	r := DefaultRing()
	tail := r.Tail(s, 1.0, math.Pi/2, 0.5e-3)
	if len(tail) == 0 {
		t.Fatal("empty tail")
	}
	early := dsp.MaxAbs(tail[:50])
	late := dsp.MaxAbs(tail[len(tail)-50:])
	if early < 0.8 {
		t.Errorf("tail must start near drive amplitude, got %g", early)
	}
	if late > 0.05 {
		t.Errorf("tail must decay by 0.5 ms, got %g", late)
	}
}

func TestRingSettleTimeMatchesFig7(t *testing.T) {
	// Fig. 7a: the vibration consumes ≈0.3 ms to dampen (to a few percent).
	r := DefaultRing()
	settle := r.SettleTime(0.03)
	if settle < 0.2e-3 || settle > 0.4e-3 {
		t.Errorf("settle time to 3%% = %.3g ms, want ≈0.3 ms", settle*1e3)
	}
	if r.SettleTime(0) != 0 || r.SettleTime(1.5) != 0 {
		t.Error("degenerate fractions must return 0")
	}
}

func TestRingSettleMonotoneProperty(t *testing.T) {
	r := DefaultRing()
	f := func(raw float64) bool {
		fr := math.Mod(math.Abs(raw), 0.98) + 0.01
		lower := r.SettleTime(fr / 2)
		higher := r.SettleTime(fr)
		return lower >= higher // settling to a smaller fraction takes longer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// lowEdgeEnergy measures the RMS amplitude inside the low (PW) edge of the
// first PIE bit-0 symbol.
func lowEdgeEnergy(s *Synth, cfg coding.PIEConfig, x []float64) float64 {
	hi := s.Samples(cfg.HighZero)
	lo := s.Samples(cfg.PW)
	if hi+lo > len(x) {
		return 0
	}
	seg := x[hi : hi+lo]
	return dsp.RMS(seg)
}

func TestOOKHasTailFSKSuppressed(t *testing.T) {
	// The core Fig. 7 result: OOK low edges are polluted by the ring tail;
	// FSK low edges carry only the off-resonance-suppressed tone.
	s := NewSynth(fs)
	cfg := coding.DefaultPIE()
	bits := []byte{0}
	ook, err := s.PIEWaveformOOK(cfg, bits, 230e3, 1.0, DefaultRing())
	if err != nil {
		t.Fatal(err)
	}
	fsk, err := s.PIEWaveformFSK(cfg, bits, 230e3, 180e3, 1.0, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	// Early part of the OOK low edge rings strongly.
	hi := s.Samples(cfg.HighZero)
	ookEarlyLow := dsp.RMS(ook[hi : hi+s.Samples(0.1e-3)])
	if ookEarlyLow < 0.2 {
		t.Errorf("OOK low edge should ring (RMS %g)", ookEarlyLow)
	}
	fskLow := dsp.RMS(fsk[hi : hi+s.Samples(0.1e-3)])
	if fskLow > 0.15 {
		t.Errorf("FSK low edge should be suppressed (RMS %g)", fskLow)
	}
	if lowEdgeEnergy(s, cfg, fsk) > lowEdgeEnergy(s, cfg, ook)+0.05 {
		t.Error("FSK total low-edge energy should not exceed OOK's ringing edge")
	}
}

func TestFSKFrequenciesPresent(t *testing.T) {
	s := NewSynth(fs)
	cfg := coding.DefaultPIE()
	x, err := s.PIEWaveformFSK(cfg, []byte{0, 0, 0, 0}, 230e3, 180e3, 1.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pHigh := dsp.Goertzel(x, fs, 230e3)
	pLow := dsp.Goertzel(x, fs, 180e3)
	if pHigh <= 0 || pLow <= 0 {
		t.Fatalf("both FSK tones must be present: %g / %g", pHigh, pLow)
	}
	if pHigh < pLow {
		t.Error("resonant tone should dominate (higher amplitude, longer share for equal edges? at least not weaker)")
	}
}

func TestPIEWaveformDuration(t *testing.T) {
	s := NewSynth(fs)
	cfg := coding.DefaultPIE()
	bits := []byte{0, 1, 0}
	x, err := s.PIEWaveformFSK(cfg, bits, 230e3, 180e3, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Samples(cfg.Duration(bits))
	if math.Abs(float64(len(x)-want)) > 3 {
		t.Errorf("FSK waveform %d samples, want ≈%d", len(x), want)
	}
}

func TestPIEWaveformRejectsBadBits(t *testing.T) {
	s := NewSynth(fs)
	cfg := coding.DefaultPIE()
	if _, err := s.PIEWaveformOOK(cfg, []byte{7}, 230e3, 1, DefaultRing()); err == nil {
		t.Error("OOK must reject invalid bits")
	}
	if _, err := s.PIEWaveformFSK(cfg, []byte{7}, 230e3, 180e3, 1, 0.2); err == nil {
		t.Error("FSK must reject invalid bits")
	}
}

func TestBackscatterModulate(t *testing.T) {
	s := NewSynth(fs)
	carrier := s.CBW(230e3, 1, 2e-3)
	// 2 kHz switching → 0.25 ms per half-state.
	states := []bool{true, false, true, false, true, false, true, false}
	per := s.Samples(0.25e-3)
	bs := s.BackscatterModulate(carrier, states, float64(per), 0.5, 0.02)
	on := dsp.RMS(bs[:per])
	off := dsp.RMS(bs[per : 2*per])
	if on < 5*off {
		t.Errorf("reflective state (%g) must dwarf absorptive (%g)", on, off)
	}
	if len(bs) != len(carrier) {
		t.Error("modulated length must match carrier")
	}
	// Empty states: all zero.
	z := s.BackscatterModulate(carrier, nil, float64(per), 0.5, 0)
	if dsp.MaxAbs(z) != 0 {
		t.Error("no states must produce silence")
	}
}

// TestBackscatterModulateFractionalHalves: at a fractional number of
// samples per half-symbol (3 kbps at 1 MS/s is 166.67), state h switches at
// int(h·halfSamples), the reader's integration grid, instead of every
// int(halfSamples) samples, which drifts a sample every third half.
func TestBackscatterModulateFractionalHalves(t *testing.T) {
	s := NewSynth(fs)
	const half = fs / 6000
	states := make([]bool, 60)
	for i := range states {
		states[i] = i%2 == 0
	}
	incident := make([]float64, int(float64(len(states))*half))
	for i := range incident {
		incident[i] = 1
	}
	bs := s.BackscatterModulate(incident, states, half, 1, 0)
	for h := range states {
		a, b := int(float64(h)*half), int(float64(h+1)*half)
		want := 0.0
		if states[h] {
			want = 1
		}
		for i := a; i < b; i++ {
			if bs[i] != want {
				t.Fatalf("half %d [%d, %d): sample %d is %g, want %g", h, a, b, i, bs[i], want)
			}
		}
	}
}

func TestFM0StatesMapping(t *testing.T) {
	halves := []float64{1, -1, 1, 1, -1, -1}
	states := FM0States(halves)
	want := []bool{true, false, true, true, false, false}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state %d = %v, want %v", i, states[i], want[i])
		}
	}
}

func TestSquareSubcarrierSidebands(t *testing.T) {
	// A square-modulated carrier puts energy at fc and fc±blf — the
	// spectrum of Fig. 24.
	s := NewSynth(fs)
	x := s.SquareSubcarrier(230e3, 2e3, 1, 20e-3)
	pC := dsp.Goertzel(x, fs, 230e3)
	pU := dsp.Goertzel(x, fs, 232e3)
	pL := dsp.Goertzel(x, fs, 228e3)
	pFar := dsp.Goertzel(x, fs, 210e3)
	if pC <= 0 || pU <= 0 || pL <= 0 {
		t.Fatalf("carrier/sidebands missing: %g %g %g", pC, pU, pL)
	}
	if pU < 10*pFar || pL < 10*pFar {
		t.Errorf("sidebands (%g/%g) must rise above the floor (%g)", pU, pL, pFar)
	}
}
