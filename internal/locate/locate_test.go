package locate

import (
	"errors"
	"math"
	"testing"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/units"
)

// syntheticMeasurements builds exact range observations to truth from the
// given anchors.
func syntheticMeasurements(truth geometry.Vec3, anchors []geometry.Vec3, speed float64) []Measurement {
	ms := make([]Measurement, len(anchors))
	for i, a := range anchors {
		ms[i] = Measurement{Anchor: a, Delay: truth.Dist(a) / speed, Speed: speed}
	}
	return ms
}

func wallAnchors() []geometry.Vec3 {
	return []geometry.Vec3{
		{X: 0.2, Y: 9.0, Z: 0},
		{X: 2.8, Y: 9.2, Z: 0},
		{X: 1.5, Y: 11.5, Z: 0},
		{X: 0.5, Y: 10.8, Z: 0.2},
		{X: 2.2, Y: 10.4, Z: 0.2},
	}
}

func TestSolveExactMeasurements(t *testing.T) {
	truth := geometry.Vec3{X: 1.4, Y: 10.1, Z: 0.12}
	speed := material.NC().VS()
	ms := syntheticMeasurements(truth, wallAnchors(), speed)
	res, err := Solve(ms, geometry.CommonWall())
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Position.Dist(truth); d > units.CM {
		t.Errorf("position error %.3f m with exact ranges (got %+v)", d, res.Position)
	}
	if res.RMSResidual > 0.01 {
		t.Errorf("residual %.4f m too high for exact data", res.RMSResidual)
	}
}

func TestSolveNoisyMeasurements(t *testing.T) {
	truth := geometry.Vec3{X: 1.0, Y: 10.4, Z: 0.1}
	speed := material.NC().VS()
	noise := dsp.NewNoiseSource(2)
	ms := syntheticMeasurements(truth, wallAnchors(), speed)
	for i := range ms {
		// ±10 µs timing jitter ≈ ±2 cm ranging error.
		ms[i].Delay += noise.Gaussian(10e-6)
	}
	res, err := Solve(ms, geometry.CommonWall())
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Position.Dist(truth); d > 0.15 {
		t.Errorf("position error %.3f m with 2 cm ranging noise", d)
	}
}

func TestSolveValidation(t *testing.T) {
	speed := 2000.0
	truth := geometry.Vec3{X: 1, Y: 1, Z: 0.1}
	two := syntheticMeasurements(truth, wallAnchors()[:2], speed)
	if _, err := Solve(two, nil); !errors.Is(err, ErrTooFewAnchors) {
		t.Errorf("two anchors: %v", err)
	}
	bad := syntheticMeasurements(truth, wallAnchors(), speed)
	bad[0].Speed = 0
	if _, err := Solve(bad, nil); err == nil {
		t.Error("zero speed must error")
	}
	neg := syntheticMeasurements(truth, wallAnchors(), speed)
	neg[1].Delay = -1
	if _, err := Solve(neg, nil); err == nil {
		t.Error("negative delay must error")
	}
}

func TestSolveInconsistentRangesReportsResidual(t *testing.T) {
	// Wildly inconsistent ranges cannot intersect: the solver must flag it.
	anchors := wallAnchors()
	ms := make([]Measurement, len(anchors))
	for i, a := range anchors {
		ms[i] = Measurement{Anchor: a, Delay: float64(i+1) * 5e-3, Speed: 2000}
	}
	_, err := Solve(ms, geometry.CommonWall())
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("inconsistent ranges should fail: %v", err)
	}
}

func TestSolveClampsIntoStructure(t *testing.T) {
	// Truth on the structure boundary with noisy ranges can pull the raw
	// solution outside; the result must clamp back in.
	wall := geometry.CommonWall()
	truth := geometry.Vec3{X: 1.2, Y: 10, Z: 0.0}
	speed := material.NC().VS()
	noise := dsp.NewNoiseSource(3)
	ms := syntheticMeasurements(truth, wallAnchors(), speed)
	for i := range ms {
		ms[i].Delay += noise.Gaussian(5e-6)
	}
	res, err := Solve(ms, wall)
	if err != nil {
		t.Fatal(err)
	}
	if !wall.Inside(res.Position) {
		t.Errorf("solution %+v must be clamped into the wall", res.Position)
	}
}

func TestLocalizeThroughChannelDelays(t *testing.T) {
	// End-to-end: build real channels from several reader anchor
	// positions to a hidden capsule, take each channel's first-arrival
	// delay as the ranging observation, and recover the position.
	wall := geometry.CommonWall()
	truth := geometry.Vec3{X: 1.6, Y: 10.2, Z: 0.1}
	speed := wall.Material.VS()
	var ms []Measurement
	for _, a := range wallAnchors() {
		ch, err := channel.New(channel.Config{
			Structure:   wall,
			Source:      a,
			Destination: truth,
			PrismAngle:  units.Deg2Rad(60),
		})
		if err != nil {
			t.Fatal(err)
		}
		first := ch.Arrivals()[0]
		ms = append(ms, MeasureFromChannel(a, first.Delay, speed))
	}
	res, err := Solve(ms, wall)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Position.Dist(truth); d > 0.1 {
		t.Errorf("channel-driven localisation error %.3f m", d)
	}
}

func TestDilutionOfPrecision(t *testing.T) {
	p := geometry.Vec3{X: 1.5, Y: 10, Z: 0.1}
	good := wallAnchors()
	gdop := DilutionOfPrecision(p, good)
	if math.IsInf(gdop, 1) {
		t.Fatal("well-spread anchors must have finite DOP")
	}
	// Collinear anchors are degenerate.
	collinear := []geometry.Vec3{
		{X: 0, Y: 10, Z: 0}, {X: 1, Y: 10, Z: 0}, {X: 2, Y: 10, Z: 0},
	}
	cdop := DilutionOfPrecision(p, collinear)
	if !math.IsInf(cdop, 1) && cdop < gdop {
		t.Errorf("collinear DOP (%g) must be worse than spread DOP (%g)", cdop, gdop)
	}
	if !math.IsInf(DilutionOfPrecision(p, collinear[:2]), 1) {
		t.Error("fewer than three anchors must be infinite DOP")
	}
}

func TestMeasurementRange(t *testing.T) {
	m := Measurement{Delay: units.MS, Speed: 2000}
	if m.Range() != 2 {
		t.Errorf("range %g, want 2 m", m.Range())
	}
}

func TestSolve3Singular(t *testing.T) {
	singular := [3][3]float64{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}}
	if _, ok := solve3(singular, [3]float64{1, 2, 3}); ok {
		t.Error("singular system must be rejected")
	}
	identity := [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	x, ok := solve3(identity, [3]float64{4, 5, 6})
	if !ok || x != [3]float64{4, 5, 6} {
		t.Errorf("identity solve: %v %v", x, ok)
	}
}

func TestClampIntoCylinder(t *testing.T) {
	col := geometry.Column()
	// A solution nudged outside the column radius/height must clamp back.
	out := clampInto(geometry.Vec3{X: 0.5, Y: 3.0, Z: 0.5}, col)
	if !col.Inside(out) {
		t.Errorf("clamped point %+v still outside the column", out)
	}
	inside := clampInto(geometry.Vec3{X: 0.1, Y: 1.0, Z: 0.1}, col)
	if inside != (geometry.Vec3{X: 0.1, Y: 1.0, Z: 0.1}) {
		t.Errorf("interior point must be untouched: %+v", inside)
	}
	low := clampInto(geometry.Vec3{X: 0, Y: -1, Z: 0}, col)
	if low.Y != 0 {
		t.Errorf("below-base point must clamp to Y=0: %+v", low)
	}
}
