package ecocapsule

// Cross-module integration tests: each scenario chains several subsystems
// the way a real deployment would, including the failure paths.

import (
	"math"
	"testing"
	"time"

	"ecocapsule/internal/bridge"
	"ecocapsule/internal/channel"
	"ecocapsule/internal/core"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/shm"
	"ecocapsule/internal/shmwire"
	"ecocapsule/internal/units"
)

// TestIntegrationAcousticPipelineThroughCasting runs the full stack:
// casting → seal → reader → charge → inventory → waveform-level sensor
// read through the multipath channel.
func TestIntegrationAcousticPipelineThroughCasting(t *testing.T) {
	wall := Wall()
	cast, err := NewCasting(wall)
	if err != nil {
		t.Fatal(err)
	}
	capsule := NewNode(NodeConfig{
		Handle:   0x77,
		Position: Position(1.2, 10, 0.1),
		Seed:     77,
	})
	if err := cast.Mix(capsule); err != nil {
		t.Fatal(err)
	}
	cast.Seal()
	rd, err := cast.AttachReader(ReaderConfig{
		TXPosition:   Position(0.1, 10, 0),
		DriveVoltage: 200,
		Seed:         77,
	})
	if err != nil {
		t.Fatal(err)
	}
	rd.SetEnvironment(func(Vec3) Environment {
		return Environment{TemperatureC: 24.5, RelativeHumidity: 58}
	})
	if up := rd.Charge(0.4); up != 1 {
		t.Fatal("capsule did not power up")
	}
	res := rd.AcousticReadRound([]uint16{0x77}, TempHumidity, reader.DefaultAcousticConfig())[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	vals := res.Values
	if math.Abs(vals[0]-24.5) > 2 {
		t.Errorf("acoustic temperature %.2f far from 24.5", vals[0])
	}
}

// TestIntegrationScatterersDegradeThenTuneRecovers couples the §3.5
// foreign-object model with the carrier tuner on a live reader channel.
func TestIntegrationScatterersDegradeThenTuneRecovers(t *testing.T) {
	ch, err := channel.New(channel.Config{
		Structure:   geometry.CommonWall(),
		Source:      geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		Destination: geometry.Vec3{X: 2.6, Y: 10, Z: 0.1},
		PrismAngle:  units.Deg2Rad(60),
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch.AddScatterers(channel.RandomScatterers(geometry.CommonWall(), 80, 4))
	f, g := ch.TuneCarrier(10*units.KHz, 500)
	nominal := ch.ToneResponse(230 * units.KHz)
	if g < nominal {
		t.Errorf("tuner must never do worse than nominal: %g < %g", g, nominal)
	}
	if f <= 0 {
		t.Error("tuned frequency must be positive")
	}
}

// TestIntegrationBridgeToWireStreaming runs the footbridge simulator
// through the TCP telemetry server and verifies a subscriber sees
// consistent data, including a storm-window alert.
func TestIntegrationBridgeToWireStreaming(t *testing.T) {
	srv, err := shmwire.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogf(func(string, ...any) {})
	defer srv.Close()
	cl, err := shmwire.Dial(srv.Addr().String(), "integration")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && srv.Subscribers() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if srv.Subscribers() != 1 {
		t.Fatal("subscriber never registered")
	}

	sim := bridge.NewSim(11)
	// Stream three storm-window hours.
	for h := 18*24 + 1; h <= 18*24+3; h++ {
		env := sim.CapsuleEnvironment(h)
		srv.BroadcastTelemetry(shmwire.Telemetry{
			Timestamp:    sim.Start().Add(time.Duration(h) * time.Hour),
			CapsuleID:    0x10,
			Acceleration: env.AccelerationMS2,
			StressMPa:    env.StressMPa,
			TemperatureC: env.TemperatureC,
			Humidity:     env.RelativeHumidity,
		})
	}
	srv.BroadcastAlert(shmwire.Alert{
		Timestamp: sim.Start().AddDate(0, 0, 18),
		Code:      shmwire.AlertAnomaly,
		Message:   "storm window",
	})

	cl.SetDeadline(time.Now().Add(3 * time.Second))
	var telemetry, alerts int
	for i := 0; i < 4; i++ {
		ev, err := cl.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case shmwire.MsgTelemetry:
			telemetry++
			if ev.Telemetry.StressMPa > -20 || ev.Telemetry.StressMPa < -120 {
				t.Errorf("stress %g outside the envelope", ev.Telemetry.StressMPa)
			}
		case shmwire.MsgAlert:
			alerts++
		}
	}
	if telemetry != 3 || alerts != 1 {
		t.Errorf("got %d telemetry + %d alerts, want 3 + 1", telemetry, alerts)
	}
}

// TestIntegrationTrendOnBridgeSeries fits degradation trends to the
// simulated bridge humidity and confirms the trendless month does not
// alarm while an injected drift does.
func TestIntegrationTrendOnBridgeSeries(t *testing.T) {
	sim := bridge.NewSim(5)
	month := sim.SimulateMonth()
	// Daily means of humidity.
	var ts, ys []float64
	for day := 0; day < 31; day++ {
		ts = append(ts, float64(day))
		ys = append(ys, dsp.Mean(month.Humidity[day*24:(day+1)*24]))
	}
	rep, err := shm.Assess("humidity", ts, ys, 99.5, 365)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alarming {
		t.Errorf("a normal month must not alarm: %+v", rep)
	}
	// Inject a leak: +2 %RH per day on top — strong enough for the fit to
	// rise above the storm-window variance.
	for i := range ys {
		ys[i] += 2.0 * ts[i]
	}
	rep2, err := shm.Assess("humidity", ts, ys, 99.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Alarming {
		t.Errorf("the injected drift must alarm: %+v", rep2)
	}
}

// TestIntegrationBrownOutDuringInventory injects a power loss mid-round
// and verifies the reader's inventory degrades gracefully.
func TestIntegrationBrownOutDuringInventory(t *testing.T) {
	cfg := reader.Config{
		Structure:    geometry.CommonWall(),
		TXPosition:   geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		DriveVoltage: 200,
		Seed:         3,
	}
	rd, err := reader.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := node.New(node.Config{Handle: 0x0A, Position: geometry.Vec3{X: 1, Y: 10, Z: 0.1}, Seed: 10})
	if err := rd.Deploy(n); err != nil {
		t.Fatal(err)
	}
	rd.Charge(0.3)
	if !n.PoweredUp() {
		t.Fatal("node must power up first")
	}
	// Brown-out: the CBW collapses (someone unplugged the amplifier).
	cs := geometry.CommonWall().Material.VS()
	n.Excite(0.001, 230*units.KHz, cs, 1e-3)
	res := rd.Inventory(4)
	if len(res.Discovered) != 0 {
		t.Errorf("a browned-out node must vanish from the inventory: %+v", res)
	}
	// Re-charge recovers it.
	rd.Charge(0.3)
	res = rd.Inventory(8)
	if len(res.Discovered) != 1 {
		t.Errorf("recovered node must be rediscovered: %+v", res)
	}
}

// TestIntegrationOverfilledPourIsRejected chains the casting volume cap
// with PlanCapsules on a small structure.
func TestIntegrationOverfilledPourIsRejected(t *testing.T) {
	slab := geometry.Slab()
	cast, err := core.NewCasting(slab)
	if err != nil {
		t.Fatal(err)
	}
	nodes := core.PlanGrid(slab, 30, 1, 1)
	var failed error
	placed := 0
	for _, n := range nodes {
		if err := cast.Mix(n); err != nil {
			failed = err
			break
		}
		placed++
	}
	if failed == nil {
		t.Fatal("30 capsules in a slab must exceed the volume-fraction cap")
	}
	if placed == 0 {
		t.Fatal("some capsules must fit before the cap")
	}
	rep := cast.Seal()
	if rep.Capsules != placed {
		t.Errorf("CT report %d capsules, want %d", rep.Capsules, placed)
	}
}

// TestIntegrationSensorChainMatchesEnvironment verifies the sensor values
// that exit the full acoustic read equal the node-local samples within
// quantisation plus sensor noise (no pipeline bias).
func TestIntegrationSensorChainMatchesEnvironment(t *testing.T) {
	cfg := reader.Config{
		Structure:    geometry.CommonWall(),
		TXPosition:   geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		DriveVoltage: 200,
		Seed:         6,
	}
	rd, err := reader.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := sensors.Environment{StrainX: 210e-6, StrainY: -90e-6}
	rd.SetEnvironment(func(geometry.Vec3) sensors.Environment { return truth })
	n := node.New(node.Config{Handle: 0x0B, Position: geometry.Vec3{X: 1.2, Y: 10, Z: 0.1}, Seed: 11})
	if err := rd.Deploy(n); err != nil {
		t.Fatal(err)
	}
	rd.Charge(0.3)
	res := rd.AcousticReadRound([]uint16{0x0B}, sensors.TypeStrain, reader.DefaultAcousticConfig())[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	vals := res.Values
	if math.Abs(vals[0]-truth.StrainX) > 5e-6 || math.Abs(vals[1]-truth.StrainY) > 5e-6 {
		t.Errorf("strains (%g, %g) far from truth (%g, %g)",
			vals[0], vals[1], truth.StrainX, truth.StrainY)
	}
}
