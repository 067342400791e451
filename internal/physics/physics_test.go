package physics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ecocapsule/internal/material"
	"ecocapsule/internal/units"
)

func deg(r float64) float64 { return units.Rad2Deg(r) }

func TestReflectionConcreteAir(t *testing.T) {
	// Eq. 1 with Z_con = 4.66e6, Z_air = 415: |R| ≈ 99.98 %.
	r := ReflectionCoefficient(material.NC(), material.Air())
	if math.Abs(math.Abs(r)-0.9998) > 0.0002 {
		t.Errorf("|R| concrete→air = %.5f, want ≈0.9998", math.Abs(r))
	}
}

func TestReflectionPrismConcrete(t *testing.T) {
	// §3.2: R ≈ 33.43 % → ≈67 % of P-wave energy conducted... the paper's
	// "energy" statement treats R as the energy split; the amplitude R we
	// compute must match 0.334 and transmission 1−R² ≈ 0.888 (amplitude
	// convention) — we assert the published amplitude coefficient.
	r := ReflectionCoefficient(material.PLA(), material.NC())
	if math.Abs(r-0.334) > 0.02 {
		t.Errorf("R prism→concrete = %.3f, want ≈0.334", r)
	}
}

func TestReflectionAntisymmetry(t *testing.T) {
	f := func(z1, z2 float64) bool {
		a := &material.Material{Kind: material.Solid, Density: 1000 + math.Abs(z1), ElasticModulus: units.GPa, PoissonRatio: 0.2}
		b := &material.Material{Kind: material.Solid, Density: 1000 + math.Abs(z2), ElasticModulus: 2 * units.GPa, PoissonRatio: 0.25}
		r12 := ReflectionCoefficient(a, b)
		r21 := ReflectionCoefficient(b, a)
		return math.Abs(r12+r21) < 1e-12 && math.Abs(r12) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTransmissionEnergyConservation(t *testing.T) {
	f := func(seed float64) bool {
		d := 500 + math.Mod(math.Abs(seed), 7000)
		a := &material.Material{Kind: material.Solid, Density: d, ElasticModulus: 30e9, PoissonRatio: 0.2}
		b := material.NC()
		r := ReflectionCoefficient(a, b)
		tr := TransmissionEnergyFraction(a, b)
		return math.Abs(r*r+tr-1) < 1e-12 && tr >= 0 && tr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSnellRefraction(t *testing.T) {
	// Faster second medium bends away from the normal (θp > θs, eq. 3).
	b := Boundary{From: material.PLA(), To: material.UHPC()}
	in := units.Deg2Rad(20)
	thetaP, err := Refract(b.From.VP(), b.To.VP(), in)
	if err != nil {
		t.Fatalf("P refraction: %v", err)
	}
	thetaS, err := Refract(b.From.VP(), b.To.VS(), in)
	if err != nil {
		t.Fatalf("S refraction: %v", err)
	}
	if !(thetaP > thetaS) {
		t.Errorf("θp (%.1f°) must exceed θs (%.1f°) because Cp > Cs",
			deg(thetaP), deg(thetaS))
	}
	if !(thetaP > in && thetaS > in) {
		t.Error("refracting into a faster medium must bend away from normal")
	}
}

func TestRefractTotalReflection(t *testing.T) {
	b := Boundary{From: material.PLA(), To: material.UHPC()}
	_, err := Refract(b.From.VP(), b.To.VP(), units.Deg2Rad(60))
	if !errors.Is(err, ErrTotalReflection) {
		t.Errorf("expected total reflection at 60° for P mode, got %v", err)
	}
}

func TestRefractInvalidVelocities(t *testing.T) {
	if _, err := Refract(0, 100, 0.1); err == nil {
		t.Error("expected error for zero input velocity")
	}
	if _, err := Refract(100, -5, 0.1); err == nil {
		t.Error("expected error for negative output velocity")
	}
}

func TestCriticalAnglesMatchPaper(t *testing.T) {
	// Fig. 4: first CA ≈ 34°, second CA ≈ 73° for the PLA→concrete
	// boundary (UHPC-class velocities per DESIGN.md calibration).
	b := Boundary{From: material.PLA(), To: material.UHPC()}
	ca1 := deg(b.FirstCriticalAngle())
	ca2 := deg(b.SecondCriticalAngle())
	if math.Abs(ca1-34) > 1.5 {
		t.Errorf("first critical angle = %.1f°, want ≈34°", ca1)
	}
	if math.Abs(ca2-73) > 1.5 {
		t.Errorf("second critical angle = %.1f°, want ≈73°", ca2)
	}
	lo, hi := b.SWaveWindow()
	if deg(lo) != ca1 || deg(hi) != ca2 {
		t.Error("SWaveWindow must return the two critical angles")
	}
}

func TestCriticalAngleNoFasterMedium(t *testing.T) {
	if got := CriticalAngle(4000, 2000); got != math.Pi/2 {
		t.Errorf("no critical angle into a slower medium, got %v", got)
	}
}

func TestDefaultPrismAngleInsideWindow(t *testing.T) {
	// The evaluation uses a 60° prism by default (§5.1); it must sit inside
	// the S-only window for every tested concrete.
	for _, c := range material.Concretes() {
		b := Boundary{From: material.PLA(), To: c}
		lo, hi := b.SWaveWindow()
		theta := units.Deg2Rad(60)
		if theta < lo || theta > hi {
			t.Errorf("%s: 60° prism outside S-window [%.1f°, %.1f°]",
				c.Name, deg(lo), deg(hi))
		}
	}
}

func TestModeAmplitudesShape(t *testing.T) {
	b := Boundary{From: material.PLA(), To: material.UHPC()}
	ca1, ca2 := b.SWaveWindow()

	// Normal incidence: all P, no S.
	p0, s0 := b.ModeAmplitudes(0)
	if math.Abs(p0-1) > 1e-9 || s0 != 0 {
		t.Errorf("at 0°: P=%.2f S=%.2f, want P=1 S=0", p0, s0)
	}
	// Below CA1 both modes coexist ("one mode in, two modes out").
	pMid, sMid := b.ModeAmplitudes(units.Deg2Rad(15))
	if pMid <= 0 || sMid <= 0 {
		t.Errorf("at 15°: both modes must coexist, got P=%.2f S=%.2f", pMid, sMid)
	}
	// Inside the window only S survives.
	pWin, sWin := b.ModeAmplitudes((ca1 + ca2) / 2)
	if pWin != 0 {
		t.Errorf("inside window P must vanish, got %.3f", pWin)
	}
	if sWin < 0.8 {
		t.Errorf("inside window S should be near peak, got %.3f", sWin)
	}
	// Beyond CA2 neither body mode remains.
	pOut, sOut := b.ModeAmplitudes(ca2 + 0.02)
	if pOut != 0 || sOut > 1e-9 {
		t.Errorf("beyond second CA: P=%.3f S=%.3f, want 0,0", pOut, sOut)
	}
}

func TestModeAmplitudesContinuity(t *testing.T) {
	b := Boundary{From: material.PLA(), To: material.UHPC()}
	prevP, prevS := b.ModeAmplitudes(0)
	for thetaDeg := 0.25; thetaDeg < 90; thetaDeg += 0.25 {
		p, s := b.ModeAmplitudes(units.Deg2Rad(thetaDeg))
		if math.Abs(p-prevP) > 0.05 || math.Abs(s-prevS) > 0.05 {
			t.Fatalf("discontinuity at %.2f°: P %.3f→%.3f, S %.3f→%.3f",
				thetaDeg, prevP, p, prevS, s)
		}
		if p < 0 || p > 1 || s < 0 || s > 1.0001 {
			t.Fatalf("amplitude out of range at %.2f°: P=%.3f S=%.3f", thetaDeg, p, s)
		}
		prevP, prevS = p, s
	}
}

func TestModeAmplitudesFluidTarget(t *testing.T) {
	// Into water no S-wave ever appears.
	b := Boundary{From: material.PLA(), To: material.Water()}
	for _, thetaDeg := range []float64{0, 10, 20, 40, 70} {
		_, s := b.ModeAmplitudes(units.Deg2Rad(thetaDeg))
		if s != 0 {
			t.Errorf("S-wave in water at %v°: %.3f", thetaDeg, s)
		}
	}
}

func TestTransducerBeam(t *testing.T) {
	// §3.2: D = 40 mm, f = 230 kHz → α ≈ 11° and a ≈132 cm³ cone through
	// a 15 cm wall.
	nc := material.NC()
	alpha := TransducerHalfBeamAngle(nc.VP(), 230*units.KHz, 40*units.MM)
	if math.Abs(deg(alpha)-11) > 1.0 {
		t.Errorf("half-beam angle = %.1f°, want ≈11°", deg(alpha))
	}
	vol := BeamConeVolume(alpha, 0.15)
	cm3 := vol / 1e-6
	if math.Abs(cm3-132) > 25 {
		t.Errorf("beam cone = %.0f cm³, want ≈132 cm³", cm3)
	}
}

func TestTransducerBeamDegenerate(t *testing.T) {
	if TransducerHalfBeamAngle(3000, 0, 0.04) != math.Pi/2 {
		t.Error("zero frequency should be omnidirectional")
	}
	if TransducerHalfBeamAngle(3000, units.KHz, units.MM) != math.Pi/2 {
		t.Error("tiny disc at low f should be omnidirectional")
	}
}

func TestWaveModeVelocityAndString(t *testing.T) {
	nc := material.NC()
	if Velocity(nc, PWave) != nc.VP() || Velocity(nc, SWave) != nc.VS() {
		t.Error("Velocity dispatch broken")
	}
	if Velocity(nc, WaveMode(7)) != 0 {
		t.Error("unknown mode must have zero velocity")
	}
	if PWave.String() != "P" || SWave.String() != "S" {
		t.Error("WaveMode.String mismatch")
	}
	if WaveMode(7).String() == "" {
		t.Error("unknown WaveMode should still format")
	}
}

func TestShellPressureDelta(t *testing.T) {
	// Eq. 4 with ρ = 2300, h = 100 m: ΔP = 2300·9.80665·100 − 101325.
	// The bare 2300 stands in for a kg/m³ density, which the dimension
	// algebra cannot express (no mass axis), so ρ·g·h reads as m/s².
	//ecolint:ignore dimcheck density literal carries the hidden kg/m3 factor that turns m/s^2 into pa
	want := 2300*units.Gravity*100 - units.AtmosphericPressure
	if got := PressureDelta(2300, 100); math.Abs(got-want) > 1 {
		t.Errorf("ΔP = %g, want %g", got, want)
	}
	if PressureDelta(2300, 0) != 0 {
		t.Error("shallow embedment must clamp to 0, not negative")
	}
}

func TestResinShellMaxHeight(t *testing.T) {
	// §4.1: ΔPmax ≈ 4.3 MPa → hmax ≈ 195 m (~55 floors) at ρ ≈ 2300.
	s := ResinShell()
	h := s.MaxBuildingHeight(2300)
	if math.Abs(h-195) > 5 {
		t.Errorf("resin shell hmax = %.0f m, want ≈195 m", h)
	}
	if !s.Survives(2300, 150) {
		t.Error("shell must survive a 150 m building")
	}
	if s.Survives(2300, 250) {
		t.Error("shell must fail at 250 m")
	}
	if err := s.StressCheck(2300, 250); err == nil {
		t.Error("StressCheck must report overpressure at 250 m")
	}
	if err := s.StressCheck(2300, 50); err != nil {
		t.Errorf("StressCheck unexpected error: %v", err)
	}
}

func TestSteelShellMaxHeight(t *testing.T) {
	// §4.1: alloy steel ΔPmax ≈ 115.2 MPa → hmax ≈ 4985 m at the top of
	// the ordinary-concrete density range (2360 kg/m³).
	s := SteelShell()
	h := s.MaxBuildingHeight(2360)
	if math.Abs(h-4985) > 60 {
		t.Errorf("steel shell hmax = %.0f m, want ≈4985 m", h)
	}
	if s.MaxBuildingHeight(0) != 0 {
		t.Error("zero density must yield zero height")
	}
}

func TestHelmholtzResonantFrequency(t *testing.T) {
	// Eq. 5 with the published geometry must land in/near the carrier band
	// for concrete S-speeds (the paper aims at ≈230 kHz).
	cell := PaperHRACell()
	for _, c := range material.Concretes() {
		fr := cell.ResonantFrequency(c.VS())
		if fr < 150*units.KHz || fr > 280*units.KHz {
			t.Errorf("%s: HRA resonance %.0f kHz outside carrier vicinity",
				c.Name, fr/units.KHz)
		}
	}
	// Closed-form check: fr = cs/(2π)·sqrt(3An/(4VcHn)).
	cs := 2350.0
	want := cs / (2 * math.Pi) * math.Sqrt(
		3*cell.NeckArea/(4*cell.CavityVolume*cell.NeckLength))
	// cs is a bare literal standing in for an m/s sound speed, so the
	// closed-form product reads as 1/m instead of hz.
	//ecolint:ignore dimcheck cs literal is an m/s sound speed; locals cannot carry annotations
	if got := cell.ResonantFrequency(cs); math.Abs(got-want) > 1e-6 {
		t.Errorf("fr = %g, want %g", got, want)
	}
	if cell.ResonantFrequency(0) != 0 {
		t.Error("zero sound speed → zero resonance")
	}
}

func TestHelmholtzGainPeaksAtResonance(t *testing.T) {
	cell := PaperHRACell()
	cs := material.UHPC().VS()
	fr := cell.ResonantFrequency(cs)
	gPeak := cell.Gain(cs, fr)
	gOff := cell.Gain(cs, fr*2)
	if gPeak <= gOff {
		t.Errorf("gain at resonance (%.2f) must exceed off-resonance (%.2f)", gPeak, gOff)
	}
	if gPeak < 2 {
		t.Errorf("resonance gain %.2f should amplify meaningfully", gPeak)
	}
	if gOff < 1 {
		t.Errorf("off-resonance gain %.2f must not attenuate below 1", gOff)
	}
	if cell.Gain(cs, 0) != 1 {
		t.Error("zero frequency gain must be 1")
	}
}

func TestHRAGainScaling(t *testing.T) {
	cs := material.UHPC().VS()
	arr := PaperHRA()
	fr := arr.Cell.ResonantFrequency(cs)
	single := arr.Cell.Gain(cs, fr)
	if got := arr.Gain(cs, fr); math.Abs(got-single) > 1e-9 {
		t.Errorf("7-cell paper array gain %.3f should equal calibration anchor %.3f", got, single)
	}
	big := HRA{Cell: arr.Cell, Cells: 28}
	if big.Gain(cs, fr) <= arr.Gain(cs, fr) {
		t.Error("more cells must not reduce gain")
	}
	none := HRA{Cell: arr.Cell, Cells: 0}
	if none.Gain(cs, fr) != 1 {
		t.Error("zero cells must be unity gain")
	}
}

func TestHelmholtzGainBoundedProperty(t *testing.T) {
	cell := PaperHRACell()
	cs := material.NC().VS()
	f := func(raw float64) bool {
		freq := math.Mod(math.Abs(raw), 1e6) + 1
		g := cell.Gain(cs, freq)
		return g >= 1 && g <= cell.Q+1 && !math.IsNaN(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
