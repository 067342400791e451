package material

import (
	"math"
	"testing"
	"testing/quick"

	"ecocapsule/internal/units"
)

func TestTable1MixTotals(t *testing.T) {
	// Sanity: each published mix sums to a plausible concrete bulk mass.
	for _, m := range Concretes() {
		total := m.Mix.Total()
		if total < 2000 || total > 2900 {
			t.Errorf("%s: mix total %.0f kg/m³ outside plausible range", m.Name, total)
		}
	}
}

func TestTable1Properties(t *testing.T) {
	cases := []struct {
		m       *Material
		fco     float64 // MPa
		ec      float64 // GPa
		nu      float64
		epsilon float64
	}{
		{NC(), 54.1, 27.8, 0.18, 0.00263},
		{UHPC(), 195.3, 52.5, 0.21, 0.00447},
		{UHPFRC(), 215.0, 52.7, 0.21, 0.00447},
	}
	for _, c := range cases {
		if got := c.m.CompressiveStrength / units.MPa; math.Abs(got-c.fco) > 1e-9 {
			t.Errorf("%s f_co = %.1f MPa, want %.1f", c.m.Name, got, c.fco)
		}
		if got := c.m.ElasticModulus / units.GPa; math.Abs(got-c.ec) > 1e-9 {
			t.Errorf("%s E_c = %.1f GPa, want %.1f", c.m.Name, got, c.ec)
		}
		if c.m.PoissonRatio != c.nu {
			t.Errorf("%s ν = %v, want %v", c.m.Name, c.m.PoissonRatio, c.nu)
		}
		if math.Abs(c.m.PeakStrain-c.epsilon) > 1e-9 {
			t.Errorf("%s ε_co = %v, want %v", c.m.Name, c.m.PeakStrain, c.epsilon)
		}
	}
}

func TestStrengthOrdering(t *testing.T) {
	nc, uhpc, uhpfrc := NC(), UHPC(), UHPFRC()
	if !(nc.CompressiveStrength < uhpc.CompressiveStrength &&
		uhpc.CompressiveStrength < uhpfrc.CompressiveStrength) {
		t.Error("compressive strength must order NC < UHPC < UHPFRC")
	}
	if !(nc.PeakResponse < uhpc.PeakResponse &&
		uhpc.PeakResponse <= uhpfrc.PeakResponse) {
		t.Error("Fig.5b: peak response must order NC < UHPC <= UHPFRC")
	}
	if !(nc.AttenuationDBPerMeter > uhpc.AttenuationDBPerMeter) {
		t.Error("stronger concrete should attenuate less")
	}
}

func TestNCMeasuredVelocities(t *testing.T) {
	nc := NC()
	if got := nc.VP(); math.Abs(got-3338) > 1 {
		t.Errorf("NC VP = %.0f, want 3338 (Lee & Oh)", got)
	}
	if got := nc.VS(); math.Abs(got-1941) > 1 {
		t.Errorf("NC VS = %.0f, want 1941", got)
	}
	// "S-waves are typically 40% slower than P-waves": ratio ≈ 0.58.
	ratio := nc.VS() / nc.VP()
	if ratio < 0.5 || ratio > 0.7 {
		t.Errorf("NC VS/VP = %.2f, want ≈0.58", ratio)
	}
}

func TestDerivedVelocitiesFromLame(t *testing.T) {
	// A material without measured overrides derives velocities from E, ν, ρ.
	m := &Material{
		Name: "derived", Kind: Solid,
		Density: 2300, ElasticModulus: 27.8 * units.GPa, PoissonRatio: 0.18,
	}
	lambda, mu := m.LameParameters()
	if lambda <= 0 || mu <= 0 {
		t.Fatalf("Lamé parameters must be positive, got λ=%g µ=%g", lambda, mu)
	}
	wantVP := math.Sqrt((lambda + 2*mu) / m.Density)
	wantVS := math.Sqrt(mu / m.Density)
	if math.Abs(m.VP()-wantVP) > 1e-9 {
		t.Errorf("VP = %g, want %g", m.VP(), wantVP)
	}
	if math.Abs(m.VS()-wantVS) > 1e-9 {
		t.Errorf("VS = %g, want %g", m.VS(), wantVS)
	}
	if m.VP() <= m.VS() {
		t.Error("P-waves must travel faster than S-waves")
	}
}

func TestFluidsHaveNoShear(t *testing.T) {
	for _, m := range []*Material{Water(), Air()} {
		if m.VS() != 0 {
			t.Errorf("%s: fluids cannot carry S-waves, got VS=%g", m.Name, m.VS())
		}
		if m.SupportsShear() {
			t.Errorf("%s: SupportsShear must be false", m.Name)
		}
		if m.WaveSpeed() != m.VP() {
			t.Errorf("%s: WaveSpeed = %g, want the P-wave fallback %g", m.Name, m.WaveSpeed(), m.VP())
		}
	}
	if !NC().SupportsShear() {
		t.Error("NC must support shear")
	}
	if nc := NC(); nc.WaveSpeed() != nc.VS() {
		t.Errorf("NC: WaveSpeed = %g, want VS %g", nc.WaveSpeed(), nc.VS())
	}
}

func TestImpedanceValues(t *testing.T) {
	if got := NC().Impedance(); math.Abs(got-4.66e6) > 1e3 {
		t.Errorf("Z_con = %g, want 4.66e6 Rayl", got)
	}
	if got := Air().Impedance(); math.Abs(got-415) > 1 {
		t.Errorf("Z_air = %g, want 415 Rayl", got)
	}
	// Derived fallback: ρ·VP when no measured value.
	m := &Material{Kind: Solid, Density: 2000, measuredVP: 3000}
	if got := m.Impedance(); math.Abs(got-6e6) > 1 {
		t.Errorf("derived impedance = %g, want 6e6", got)
	}
}

func TestFrequencyResponseShape(t *testing.T) {
	for _, m := range Concretes() {
		f0 := m.ResonantFrequency
		// Resonance is between 200 and 250 kHz for all concretes (Fig. 5b).
		if f0 < 200*units.KHz || f0 > 250*units.KHz {
			t.Errorf("%s resonance %.0f kHz outside [200,250]", m.Name, f0/units.KHz)
		}
		peak := m.FrequencyResponse(f0)
		if peak <= 0 {
			t.Fatalf("%s zero response at resonance", m.Name)
		}
		// Rapid attenuation beyond the band.
		if hi := m.FrequencyResponse(400 * units.KHz); hi > 0.25*peak {
			t.Errorf("%s: response at 400 kHz (%.3f) should be ≪ peak (%.3f)",
				m.Name, hi, peak)
		}
		if lo := m.FrequencyResponse(20 * units.KHz); lo > 0.4*peak {
			t.Errorf("%s: response at 20 kHz (%.3f) should be well below peak", m.Name, lo)
		}
		// Off-resonance at 180 kHz must be meaningfully below the 230 kHz
		// band: this is what makes FSK-in-OOK-out work (§3.3).
		onRes := m.FrequencyResponse(f0)
		offRes := m.FrequencyResponse(180 * units.KHz)
		if offRes >= 0.8*onRes {
			t.Errorf("%s: off-resonance response %.3f not suppressed vs %.3f",
				m.Name, offRes, onRes)
		}
	}
}

func TestFrequencyResponseNonNegativeProperty(t *testing.T) {
	m := UHPC()
	f := func(raw float64) bool {
		freq := math.Mod(math.Abs(raw), 1e6)
		r := m.FrequencyResponse(freq)
		return r >= 0 && !math.IsNaN(r) && !math.IsInf(r, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResponseVoltsPeaks(t *testing.T) {
	// Fig. 5b: UHPC/UHPFRC peaks far above NC.
	nc, uhpc := NC(), UHPFRC()
	ncPeak := nc.ResponseVolts(nc.ResonantFrequency)
	frcPeak := uhpc.ResponseVolts(uhpc.ResonantFrequency)
	if frcPeak < 2*ncPeak {
		t.Errorf("UHPFRC peak %.2f V should be ≫ NC peak %.2f V", frcPeak, ncPeak)
	}
	if math.Abs(ncPeak-nc.PeakResponse) > 1e-9 {
		t.Errorf("peak volts %.3f should equal PeakResponse %.3f", ncPeak, nc.PeakResponse)
	}
}

func TestAttenuationGrowsWithFrequency(t *testing.T) {
	m := NC()
	a1 := m.AttenuationAt(115 * units.KHz)
	a2 := m.AttenuationAt(230 * units.KHz)
	a3 := m.AttenuationAt(460 * units.KHz)
	if !(a1 < a2 && a2 < a3) {
		t.Errorf("attenuation must grow with frequency: %g %g %g", a1, a2, a3)
	}
	if math.Abs(a2-m.AttenuationDBPerMeter) > 1e-9 {
		t.Errorf("attenuation at carrier = %g, want anchor %g", a2, m.AttenuationDBPerMeter)
	}
	// f² scaling.
	if math.Abs(a3/a2-4) > 1e-9 {
		t.Errorf("f² scaling broken: %g", a3/a2)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"NC", "UHPC", "UHPFRC", "water", "air", "PLA", "resin", "alloy-steel"} {
		if m := ByName(name); m == nil || m.Name != name {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if ByName("granite") != nil {
		t.Error("ByName should return nil for unknown material")
	}
}

func TestPLAImpedanceGivesPaperReflection(t *testing.T) {
	// §3.2: R ≈ 33.43 % between PLA prism and concrete.
	zp, zc := PLA().Impedance(), NC().Impedance()
	r := (zc - zp) / (zc + zp)
	if math.Abs(r-0.334) > 0.02 {
		t.Errorf("prism/concrete reflection = %.3f, want ≈0.334", r)
	}
}

func TestKindString(t *testing.T) {
	if Solid.String() != "solid" || Fluid.String() != "fluid" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind should still format")
	}
}

func TestMaterialString(t *testing.T) {
	s := NC().String()
	if s == "" {
		t.Error("String() empty")
	}
}
