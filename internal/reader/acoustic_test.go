package reader

import (
	"errors"
	"testing"

	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/node"
	"ecocapsule/internal/sensors"
)

// acousticRead is a waveform-level read of one node: a one-slot round.
func acousticRead(r *Reader, h uint16, st sensors.SensorType, cfg AcousticConfig) ([]float64, error) {
	res := r.AcousticReadRound([]uint16{h}, st, cfg)[0]
	return res.Values, res.Err
}

func TestAcousticReadOneSlotEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	// The headline integration test: a sensor reading travels from the
	// node's MCU through FM0 backscatter, the multipath concrete channel
	// with CBW leakage, and the reader's full decode chain.
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		return sensors.Environment{TemperatureC: 31.5, RelativeHumidity: 77}
	})
	deployNode(t, r, 0x31, 1.0)
	if up := r.Charge(0.3); up != 1 {
		t.Fatal("node failed to power up")
	}
	vals, err := acousticRead(r, 0x31, sensors.TypeTempHumidity, DefaultAcousticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("values %v", vals)
	}
	if vals[0] < 29 || vals[0] > 34 {
		t.Errorf("temperature %.2f far from 31.5", vals[0])
	}
	if vals[1] < 70 || vals[1] > 85 {
		t.Errorf("humidity %.1f far from 77", vals[1])
	}
}

func TestAcousticReadAllSensorTypes(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		return sensors.Environment{
			TemperatureC: 25, RelativeHumidity: 60,
			StrainX: 120e-6, StrainY: -40e-6,
			AccelerationMS2: -0.02, StressMPa: -58,
		}
	})
	deployNode(t, r, 0x32, 0.8)
	r.Charge(0.3)
	for _, st := range []sensors.SensorType{
		sensors.TypeTempHumidity, sensors.TypeStrain, sensors.TypeAccelerometer,
	} {
		vals, err := acousticRead(r, 0x32, st, DefaultAcousticConfig())
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(vals) != 2 {
			t.Errorf("%v: values %v", st, vals)
		}
	}
}

func TestAcousticReadUnknownNode(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acousticRead(r, 0x99, sensors.TypeStrain, DefaultAcousticConfig()); err == nil {
		t.Error("unknown node must error")
	}
}

func TestAcousticReadUnpoweredNode(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	deployNode(t, r, 0x33, 1.0)
	// No Charge: the node is dormant, the MCU cannot answer.
	if _, err := acousticRead(r, 0x33, sensors.TypeStrain, DefaultAcousticConfig()); err == nil {
		t.Error("dormant node must error")
	}
}

func TestAcousticReadHighNoiseFails(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	deployNode(t, r, 0x34, 1.0)
	r.Charge(0.3)
	cfg := DefaultAcousticConfig()
	cfg.NoiseSigma = 2.5 // drown the capture
	_, err = acousticRead(r, 0x34, sensors.TypeStrain, cfg)
	if err == nil {
		t.Error("a drowned capture must fail to decode")
	}
	if !errors.Is(err, ErrAcousticDecode) {
		t.Errorf("failure must wrap ErrAcousticDecode, got %v", err)
	}
}

func TestAcousticReadAtHigherBitrate(t *testing.T) {
	// Higher bitrates need a compact structure: the paper's 13 kbps was
	// measured through 15 cm blocks, whose reverberation (delay spread
	// ≈70 µs here) is an order of magnitude shorter than a slab's or a
	// wall's. This test pins the physics: the block sustains 4 kbps while
	// the 20 m wall cannot.
	block := &geometry.Structure{
		Name: "block-15cm", Shape: geometry.Box, Material: material.UHPC(),
		Length: 0.15, Height: 0.15, Thickness: 0.15, SurfaceLossDB: 0.4,
	}
	r, err := New(Config{
		Structure:    block,
		TXPosition:   geometry.Vec3{X: 0.01, Y: 0.075, Z: 0},
		DriveVoltage: 200,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		return sensors.Environment{TemperatureC: 22, RelativeHumidity: 55}
	})
	n := node.New(node.Config{Handle: 0x35, Position: geometry.Vec3{X: 0.08, Y: 0.075, Z: 0.075}, Seed: 35})
	if err := r.Deploy(n); err != nil {
		t.Fatal(err)
	}
	r.Charge(0.3)
	acfg := DefaultAcousticConfig()
	acfg.UplinkBitrate = 4000
	vals, err := acousticRead(r, 0x35, sensors.TypeTempHumidity, acfg)
	if err != nil {
		t.Fatalf("4 kbps read through the block: %v", err)
	}
	if vals[0] < 20 || vals[0] > 24 {
		t.Errorf("temperature %.2f far from 22", vals[0])
	}
	// The reverberant 20 m wall swallows the shorter symbols. The coherent
	// leakage-suppressing RX front-end stretches the limit to ~6 kbps, so
	// pin the physical ceiling one octave up: 8 kbps symbols are shorter
	// than the wall's delay spread and must not decode.
	wallR, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	deployNode(t, wallR, 0x36, 1.0)
	wallR.Charge(0.3)
	acfg.UplinkBitrate = 8000
	if _, err := acousticRead(wallR, 0x36, sensors.TypeTempHumidity, acfg); err == nil {
		t.Error("8 kbps through the 20 m wall should fail: its delay spread exceeds the symbol window")
	}
}
