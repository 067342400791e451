package geometry

import (
	"math"
	"testing"
	"testing/quick"

	"ecocapsule/internal/units"
)

func TestVec3Algebra(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 6, 8}
	if got := a.Add(b); got != (Vec3{5, 8, 11}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 4, 5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if math.Abs(b.Sub(a).Norm()-math.Sqrt(50)) > 1e-12 {
		t.Errorf("Norm = %g", b.Sub(a).Norm())
	}
	if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-12 {
		t.Error("Dist must be symmetric")
	}
}

func TestStructureCatalogDimensions(t *testing.T) {
	// §5.1: S1 = 150×50×15 cm slab, S2 = 250 cm column ⌀70 cm,
	// S3 = 2000×2000×20 cm, S4 = 2000×2000×50 cm.
	s1, s2, s3, s4 := Slab(), Column(), CommonWall(), ProtectiveWall()
	if s1.Length != 1.5 || s1.Height != 0.5 || s1.Thickness != 0.15 {
		t.Errorf("S1 dimensions wrong: %+v", s1)
	}
	if s2.Height != 2.5 || s2.Diameter != 0.7 || s2.Shape != Cylinder {
		t.Errorf("S2 dimensions wrong: %+v", s2)
	}
	if s3.Length != 20 || s3.Thickness != 0.20 {
		t.Errorf("S3 dimensions wrong: %+v", s3)
	}
	if s4.Thickness != 0.50 {
		t.Errorf("S4 dimensions wrong: %+v", s4)
	}
	if len(EvaluationStructures()) != 4 {
		t.Error("EvaluationStructures must return S1–S4")
	}
}

func TestInsideBox(t *testing.T) {
	s := Slab()
	if !s.Inside(Vec3{0.75, 0.25, 0.07}) {
		t.Error("centre must be inside")
	}
	if s.Inside(Vec3{-0.01, 0.25, 0.07}) || s.Inside(Vec3{0.75, 0.25, 0.16}) {
		t.Error("outside points must be rejected")
	}
	if !s.Inside(Vec3{0, 0, 0}) || !s.Inside(Vec3{1.5, 0.5, 0.15}) {
		t.Error("boundary corners count as inside")
	}
}

func TestInsideCylinder(t *testing.T) {
	c := Column()
	if !c.Inside(Vec3{0, 1.0, 0}) {
		t.Error("axis point must be inside")
	}
	if !c.Inside(Vec3{0.34, 1.0, 0}) {
		t.Error("point within radius must be inside")
	}
	if c.Inside(Vec3{0.36, 1.0, 0}) {
		t.Error("point beyond radius must be outside")
	}
	if c.Inside(Vec3{0, 2.6, 0}) || c.Inside(Vec3{0, -0.1, 0}) {
		t.Error("points beyond the axis extent must be outside")
	}
}

func TestShapeString(t *testing.T) {
	if Box.String() != "box" || Cylinder.String() != "cylinder" {
		t.Error("Shape.String mismatch")
	}
	if Shape(9).String() == "" {
		t.Error("unknown shape must format")
	}
}

func TestMinTransverseDimension(t *testing.T) {
	if CommonWall().MinTransverseDimension() != 0.20 {
		t.Error("wall confinement = thickness")
	}
	if Column().MinTransverseDimension() != 0.70 {
		t.Error("column confinement = diameter")
	}
}

func TestReflectionToAirNearTotal(t *testing.T) {
	for _, s := range EvaluationStructures() {
		r := s.ReflectionCoefficientToAir()
		if r < 0.999 {
			t.Errorf("%s: reflection to air %.5f, want ≈0.9998", s.Name, r)
		}
	}
	// Water/air is weaker than concrete/air but still high.
	if r := PABPool1().ReflectionCoefficientToAir(); r < 0.99 {
		t.Errorf("pool reflection %.4f", r)
	}
}

func TestConfinementGainOrdering(t *testing.T) {
	// §5.2 finding 2: narrower structures concentrate energy. At the same
	// range the 20 cm wall out-gains the 50 cm wall, which out-gains the
	// 70 cm column.
	d := 3.0
	g3 := CommonWall().ConfinementGain(d)
	g4 := ProtectiveWall().ConfinementGain(d)
	g2 := Column().ConfinementGain(d)
	if !(g3 > g4 && g4 > g2) {
		t.Errorf("confinement ordering wrong: S3=%.2f S4=%.2f S2=%.2f", g3, g4, g2)
	}
	if CommonWall().ConfinementGain(0.1) != 1 {
		t.Error("no confinement gain below one transverse width")
	}
}

func TestSpreadingLossMonotonic(t *testing.T) {
	s := CommonWall()
	f := 230 * units.KHz
	prev := s.SpreadingLossDB(0.1, f)
	for d := 0.2; d <= 6; d += 0.2 {
		loss := s.SpreadingLossDB(d, f)
		if loss < prev-1e-9 {
			t.Fatalf("loss must not decrease with range: %.2f dB at %.1f m after %.2f", loss, d, prev)
		}
		prev = loss
	}
	if s.SpreadingLossDB(0, f) != 0 {
		t.Error("zero range must be zero loss")
	}
}

func TestSpreadingLossNonNegativeProperty(t *testing.T) {
	s := Slab()
	f := func(raw float64) bool {
		d := math.Mod(math.Abs(raw), 10)
		return s.SpreadingLossDB(d, 230*units.KHz) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestImpulseResponseBasics(t *testing.T) {
	s := Slab()
	src := Vec3{0.05, 0.25, 0}
	dst := Vec3{1.0, 0.25, 0.07}
	arr := s.ImpulseResponse(src, dst, DefaultImpulseConfig())
	if len(arr) < 5 {
		t.Fatalf("expected a dense reverberant response, got %d arrivals", len(arr))
	}
	// Sorted by delay and physical.
	for i := 1; i < len(arr); i++ {
		if arr[i].Delay < arr[i-1].Delay {
			t.Fatal("arrivals must be sorted by delay")
		}
	}
	direct := arr[0]
	wantDelay := src.Dist(dst) / s.Material.VS()
	if math.Abs(direct.Delay-wantDelay) > units.US {
		t.Errorf("first arrival delay %.6g, want %.6g", direct.Delay, wantDelay)
	}
	if direct.Bounces != 0 || !direct.Shear {
		t.Errorf("first arrival should be the direct S path: %+v", direct)
	}
	// The direct path dominates any individual echo.
	for _, a := range arr[1:] {
		if a.Gain > direct.Gain {
			t.Errorf("echo (%+v) stronger than direct path (%+v)", a, direct)
		}
	}
}

func TestImpulseResponseTwoModes(t *testing.T) {
	// With a 15° incidence both P and S copies propagate; the P copy of
	// the direct path arrives earlier.
	s := Slab()
	cfg := DefaultImpulseConfig()
	cfg.PFraction = 0.7
	cfg.SFraction = 0.5
	src := Vec3{0.05, 0.25, 0}
	dst := Vec3{1.2, 0.25, 0.07}
	arr := s.ImpulseResponse(src, dst, cfg)
	var sawP, sawS bool
	var pDelay, sDelay float64
	for _, a := range arr {
		if a.Bounces == 0 {
			if a.Shear {
				sawS, sDelay = true, a.Delay
			} else {
				sawP, pDelay = true, a.Delay
			}
		}
	}
	if !sawP || !sawS {
		t.Fatal("both direct-mode copies must appear")
	}
	if pDelay >= sDelay {
		t.Error("P copy must arrive before the S copy (Cp > Cs)")
	}
	ratio := pDelay / sDelay
	// S is ≈40 % slower → delay ratio ≈ Cs/Cp ≈ 0.58.
	if ratio < 0.5 || ratio > 0.7 {
		t.Errorf("P/S delay ratio %.2f, want ≈0.58", ratio)
	}
}

func TestImpulseResponseFluidHasNoShear(t *testing.T) {
	p := PABPool1()
	cfg := DefaultImpulseConfig()
	cfg.PFraction = 1
	cfg.SFraction = 1 // requested but impossible in water
	arr := p.ImpulseResponse(Vec3{0.5, 2, 2}, Vec3{5, 2, 2}, cfg)
	if len(arr) == 0 {
		t.Fatal("pool response empty")
	}
	for _, a := range arr {
		if a.Shear {
			t.Fatal("shear arrivals cannot exist in water")
		}
	}
}

func TestImpulseResponseEnergyDecaysWithRange(t *testing.T) {
	s := CommonWall()
	cfg := DefaultImpulseConfig()
	src := Vec3{0.1, 10, 0}
	near := s.ImpulseResponse(src, Vec3{1, 10, 0.1}, cfg)
	far := s.ImpulseResponse(src, Vec3{6, 10, 0.1}, cfg)
	if TotalEnergy(near) <= TotalEnergy(far) {
		t.Errorf("energy must decay with range: near %g far %g",
			TotalEnergy(near), TotalEnergy(far))
	}
}

func TestImpulseResponseDegenerate(t *testing.T) {
	s := &Structure{Name: "flat", Shape: Box, Material: Slab().Material}
	if arr := s.ImpulseResponse(Vec3{}, Vec3{1, 0, 0}, DefaultImpulseConfig()); arr != nil {
		t.Error("zero-dimension structure must return nil")
	}
	cfg := DefaultImpulseConfig()
	cfg.PFraction, cfg.SFraction = 0, 0
	if arr := Slab().ImpulseResponse(Vec3{}, Vec3{1, 0, 0}, cfg); arr != nil {
		t.Error("no requested modes must return nil")
	}
}

func TestDelaySpread(t *testing.T) {
	if DelaySpread(nil) != 0 {
		t.Error("empty spread must be 0")
	}
	single := []Arrival{{Delay: units.MS, Gain: 1}}
	if DelaySpread(single) != 0 {
		t.Error("single arrival has zero spread")
	}
	two := []Arrival{{Delay: 0, Gain: 1}, {Delay: 2e-3, Gain: 1}}
	if math.Abs(DelaySpread(two)-units.MS) > 1e-9 {
		t.Errorf("two equal arrivals 2 ms apart → 1 ms RMS, got %g", DelaySpread(two))
	}
	// Narrow structure at long range ⇒ larger delay spread than short range.
	s := CommonWall()
	cfg := DefaultImpulseConfig()
	nearArr := s.ImpulseResponse(Vec3{0.1, 10, 0}, Vec3{0.5, 10, 0.1}, cfg)
	if DelaySpread(nearArr) <= 0 {
		t.Error("reverberant response must have positive delay spread")
	}
}

func TestTotalEnergy(t *testing.T) {
	arr := []Arrival{{Gain: 3}, {Gain: 4}}
	if TotalEnergy(arr) != 25 {
		t.Errorf("TotalEnergy = %g, want 25", TotalEnergy(arr))
	}
	if TotalEnergy(nil) != 0 {
		t.Error("empty energy must be 0")
	}
}

func TestMirrorFunction(t *testing.T) {
	// Even order: translation; odd order: reflection.
	if mirror(0.3, 0, 1.0) != 0.3 {
		t.Error("order 0 must be identity")
	}
	if mirror(0.3, 2, 1.0) != 2.3 {
		t.Error("order 2 must translate by 2L")
	}
	if math.Abs(mirror(0.3, 1, 1.0)-1.7) > 1e-12 {
		t.Errorf("order 1 = %g, want 1.7", mirror(0.3, 1, 1.0))
	}
	if math.Abs(mirror(0.3, -1, 1.0)-(-0.3)) > 1e-12 {
		t.Errorf("order -1 = %g, want -0.3", mirror(0.3, -1, 1.0))
	}
}

func TestMaxRangeAxis(t *testing.T) {
	if got := CommonWall().MaxRangeAxis(); got != 20 {
		t.Errorf("wall axis %g, want 20", got)
	}
	if got := Column().MaxRangeAxis(); got != 2.5 {
		t.Errorf("column axis %g, want 2.5 (height)", got)
	}
	tall := &Structure{Shape: Box, Length: 1, Height: 5, Thickness: 0.2}
	if got := tall.MaxRangeAxis(); got != 5 {
		t.Errorf("tall box axis %g, want 5", got)
	}
}

func TestPABPool2Geometry(t *testing.T) {
	p := PABPool2()
	// The corridor pool: elongated, strongly confined.
	if p.Length <= p.Height || p.Length <= p.Thickness {
		t.Errorf("pool 2 must be corridor-shaped: %+v", p)
	}
	if p.Material.Name != "water" {
		t.Errorf("pool material %q", p.Material.Name)
	}
	if p.MinTransverseDimension() >= PABPool1().MinTransverseDimension() {
		t.Error("pool 2 must be narrower than pool 1")
	}
}
