package channel

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ecocapsule/internal/dsp"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/units"
	"ecocapsule/internal/waveform"
)

func wallChannel(t *testing.T, angleDeg float64, rangeM float64) *Channel {
	t.Helper()
	ch, err := New(Config{
		Structure:   geometry.CommonWall(),
		Source:      geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		Destination: geometry.Vec3{X: 0.1 + rangeM, Y: 10, Z: 0.1},
		PrismAngle:  units.Deg2Rad(angleDeg),
		NoiseFloor:  1e-4,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("channel: %v", err)
	}
	return ch
}

func TestNewValidations(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil structure must error")
	}
	// Beyond the second critical angle no body wave propagates. The second
	// critical angle only exists when the concrete's S-speed exceeds the
	// prism speed (UHPC-class concrete: CA2 ≈ 73°).
	uhpcWall := geometry.CommonWall()
	uhpcWall.Material = material.UHPC()
	_, err := New(Config{
		Structure:   uhpcWall,
		Source:      geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		Destination: geometry.Vec3{X: 1, Y: 10, Z: 0.1},
		PrismAngle:  units.Deg2Rad(85),
	})
	if !errors.Is(err, ErrNoPath) {
		t.Errorf("85° incidence should be ErrNoPath, got %v", err)
	}
}

func TestDefaultPrismGivesSOnlyChannel(t *testing.T) {
	ch := wallChannel(t, 60, 1.0)
	for _, a := range ch.Arrivals() {
		if !a.Shear {
			t.Fatal("60° prism must excite S-waves only")
		}
	}
}

func TestZeroIncidenceGivesPOnly(t *testing.T) {
	ch := wallChannel(t, 0, 1.0)
	for _, a := range ch.Arrivals() {
		if a.Shear {
			t.Fatal("direct adhesion must excite P-waves only")
		}
	}
}

func TestMidAngleGivesBothModes(t *testing.T) {
	ch := wallChannel(t, 15, 1.0)
	var p, s bool
	for _, a := range ch.Arrivals() {
		if a.Shear {
			s = true
		} else {
			p = true
		}
	}
	if !p || !s {
		t.Error("15° incidence must put both modes in the wall (Fig. 3b)")
	}
}

func TestPathGainDecaysWithRange(t *testing.T) {
	g1 := wallChannel(t, 60, 0.5).PathGain()
	g2 := wallChannel(t, 60, 2.0).PathGain()
	g3 := wallChannel(t, 60, 5.0).PathGain()
	if !(g1 > g2 && g2 > g3) {
		t.Errorf("path gain must decay: %.4g %.4g %.4g", g1, g2, g3)
	}
	if g3 <= 0 {
		t.Error("gain must stay positive")
	}
}

func TestTransmitToneSNR(t *testing.T) {
	ch := wallChannel(t, 60, 1.0)
	syn := waveform.NewSynth(1e6)
	tone := syn.CBW(230e3, 1, 4e-3)
	rx := ch.Transmit(tone)
	if len(rx) < len(tone) {
		t.Fatal("output must be at least input length")
	}
	// The received tone must be detectable at the carrier.
	p := dsp.Goertzel(rx[1000:4000], 1e6, 230e3)
	if p <= 0 {
		t.Fatal("carrier vanished in transit")
	}
	// SNRAt must be finite and positive at this short range.
	snr := ch.SNRAt(1 / math.Sqrt2)
	if math.IsInf(snr, 0) || snr < 0 {
		t.Errorf("SNR = %g dB, want finite positive", snr)
	}
}

func TestTransmitEmptyInput(t *testing.T) {
	ch := wallChannel(t, 60, 1.0)
	if ch.Transmit(nil) != nil {
		t.Error("empty input must return nil")
	}
}

func TestToneResponseResonanceShaping(t *testing.T) {
	// The channel must pass the resonant carrier better than the
	// off-resonant FSK low tone — the basis of the anti-ring trick.
	ch := wallChannel(t, 60, 0.8)
	on := ch.ToneResponse(220e3)
	off := ch.ToneResponse(150e3)
	if on <= off {
		t.Errorf("on-resonance response (%g) must exceed off-resonance (%g)", on, off)
	}
}

func TestSNRAtNoNoise(t *testing.T) {
	ch, err := New(Config{
		Structure:   geometry.Slab(),
		Source:      geometry.Vec3{X: 0.05, Y: 0.25, Z: 0},
		Destination: geometry.Vec3{X: 1.0, Y: 0.25, Z: 0.07},
		PrismAngle:  units.Deg2Rad(60),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ch.SNRAt(1), 1) {
		t.Error("zero noise floor must give +Inf SNR")
	}
}

func TestDelaySpreadPositive(t *testing.T) {
	ch := wallChannel(t, 60, 2.0)
	if ch.DelaySpread() <= 0 {
		t.Error("reverberant wall channel must have positive delay spread")
	}
}

func TestUnderwaterChannelPAB(t *testing.T) {
	// PAB pool channel: fluid, P-only, 15 kHz carrier.
	ch, err := New(Config{
		Structure:        geometry.PABPool1(),
		Source:           geometry.Vec3{X: 0.5, Y: 2.5, Z: 2},
		Destination:      geometry.Vec3{X: 4, Y: 2.5, Z: 2},
		CarrierFrequency: 15 * units.KHz,
		PrismAngle:       0,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ch.Arrivals() {
		if a.Shear {
			t.Fatal("underwater arrivals cannot be shear")
		}
	}
	if ch.PathGain() <= 0 {
		t.Error("pool path gain must be positive")
	}
}

func TestResonanceGainAtCarrier(t *testing.T) {
	ch := wallChannel(t, 60, 1.0)
	if g := ch.ResonanceGain(); g <= 0 || g > 1.0001 {
		t.Errorf("resonance gain %g out of (0,1]", g)
	}
	// An off-resonance carrier must see a lower gain.
	off, err := New(Config{
		Structure:        geometry.CommonWall(),
		Source:           geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		Destination:      geometry.Vec3{X: 1.1, Y: 10, Z: 0.1},
		CarrierFrequency: 150 * units.KHz,
		PrismAngle:       units.Deg2Rad(60),
	})
	if err != nil {
		t.Fatal(err)
	}
	if off.ResonanceGain() >= ch.ResonanceGain() {
		t.Errorf("off-carrier resonance gain (%g) must be below on-carrier (%g)",
			off.ResonanceGain(), ch.ResonanceGain())
	}
}

func TestTransmitLinearityProperty(t *testing.T) {
	// The noiseless channel is linear: T(a+b) = T(a)+T(b) and T(ka) = k·T(a).
	ch, err := New(Config{
		Structure:   geometry.CommonWall(),
		Source:      geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		Destination: geometry.Vec3{X: 1.4, Y: 10, Z: 0.1},
		PrismAngle:  units.Deg2Rad(60),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		src := dsp.NewNoiseSource(seed)
		a := make([]float64, 256)
		b := make([]float64, 256)
		sum := make([]float64, 256)
		for i := range a {
			a[i] = src.Gaussian(1)
			b[i] = src.Gaussian(1)
			sum[i] = a[i] + b[i]
		}
		ya, yb, ys := ch.Transmit(a), ch.Transmit(b), ch.Transmit(sum)
		for i := range ys {
			if math.Abs(ys[i]-(ya[i]+yb[i])) > 1e-9 {
				return false
			}
		}
		scaled := make([]float64, 256)
		for i := range a {
			scaled[i] = 3 * a[i]
		}
		ysc := ch.Transmit(scaled)
		for i := range ysc {
			if math.Abs(ysc[i]-3*ya[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPathGainMonotoneInAttenuationProperty(t *testing.T) {
	// Doubling the material attenuation can only reduce the path gain.
	mk := func(att float64) float64 {
		wall := geometry.CommonWall()
		m := *wall.Material
		m.AttenuationDBPerMeter = att
		wall.Material = &m
		ch, err := New(Config{
			Structure:   wall,
			Source:      geometry.Vec3{X: 0.1, Y: 10, Z: 0},
			Destination: geometry.Vec3{X: 2.6, Y: 10, Z: 0.1},
			PrismAngle:  units.Deg2Rad(60),
		})
		if err != nil {
			t.Fatal(err)
		}
		return ch.PathGain()
	}
	prev := mk(0.1)
	for _, att := range []float64{0.35, 1, 3, 9} {
		g := mk(att)
		if g >= prev {
			t.Fatalf("path gain must fall with attenuation: %g at %g dB/m after %g", g, att, prev)
		}
		prev = g
	}
}

// TestTransmitSampleBoundaryArrival pins the output-length/tap-offset
// rounding: an arrival at exactly k samples of delay must land on index k
// with its full gain and be covered by the output buffer, even when the
// float product delay*fs dips just below the integer (the old truncating
// arithmetic dropped or displaced it).
func TestTransmitSampleBoundaryArrival(t *testing.T) {
	fs := 1 * units.MHz
	for _, k := range []int{1, 100, 123, 1234, 51234} {
		c := &Channel{
			cfg:      Config{SampleRate: fs},
			arrivals: []geometry.Arrival{{Delay: float64(k) / fs, Gain: 0.5}},
			noise:    dsp.NewNoiseSource(1),
			resGain:  1,
		}
		c.rebuildConvolver()
		out := c.Transmit([]float64{1})
		if len(out) != k+1 {
			t.Fatalf("k=%d: output length %d, want %d (arrival truncated)", k, len(out), k+1)
		}
		if math.Abs(out[k]-0.5) > 1e-12 {
			t.Fatalf("k=%d: tap landed with gain %g at the boundary, want 0.5", k, out[k])
		}
		for i := 0; i < k; i++ {
			if out[i] != 0 {
				t.Fatalf("k=%d: spurious energy at sample %d (%g) — tap displaced early", k, i, out[i])
			}
		}
	}
}

// TestTransmitMatchesArrivalLoop guards the convolver wiring: for a real
// image-source channel the engine output must equal the reference
// tapped-delay-line loop (rounded offsets, resonance gain applied) on both
// sides of the FFT crossover.
func TestTransmitMatchesArrivalLoop(t *testing.T) {
	ch := wallChannel(t, 60, 1.0)
	ch.cfg.NoiseFloor = 0 // deterministic comparison
	fs := ch.cfg.SampleRate
	src := dsp.NewNoiseSource(99)
	for _, n := range []int{500, 60000} { // direct regime and FFT regime
		x := make([]float64, n)
		for i := range x {
			x[i] = src.Gaussian(1)
		}
		got := ch.Transmit(x)
		want := make([]float64, len(got))
		for _, a := range ch.Arrivals() {
			off := int(math.Round(a.Delay * fs))
			g := a.Gain * ch.ResonanceGain()
			for i, v := range x {
				want[i+off] += g * v
			}
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d: sample %d differs by %g", n, i, got[i]-want[i])
			}
		}
	}
}
