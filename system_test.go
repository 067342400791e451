package ecocapsule

// The capstone system test: a full monitoring deployment lifecycle.
// Plan stations for a wall, cast capsules, run the fleet, stream fused
// telemetry over the wire protocol, fit degradation trends on what a
// subscriber received, and check the modal health of the bridge — every
// subsystem touching every other the way a production deployment would.

import (
	"sync"
	"testing"
	"time"

	"ecocapsule/internal/bridge"
	"ecocapsule/internal/deploy"
	"ecocapsule/internal/fleet"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/shm"
	"ecocapsule/internal/shmwire"
)

func TestSystemFullMonitoringLifecycle(t *testing.T) {
	// ---- 1. Plan and build the sensing deployment. --------------------
	wall := geometry.CommonWall()
	var capsules []*node.Node
	var positions []geometry.Vec3
	for i := 0; i < 6; i++ {
		pos := geometry.Vec3{X: 1.5 + 3.2*float64(i), Y: 10, Z: 0.1}
		positions = append(positions, pos)
		capsules = append(capsules, node.New(node.Config{
			Handle:   uint16(0xA0 + i),
			Position: pos,
			Seed:     int64(i),
		}))
	}
	plan, err := deploy.Cover(wall, positions, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible() {
		t.Fatalf("plan infeasible: %+v", plan)
	}
	fl, err := fleet.New(wall, plan, capsules, 7)
	if err != nil {
		t.Fatal(err)
	}

	// ---- 2. Drive the wall's environment from the bridge simulator. ---
	sim := bridge.NewSim(77)
	hour := 0
	// The fleet samples from several stations at once and requires a
	// sampler safe for concurrent use; bridge.Sim draws from one noise
	// source, so serialise it.
	var simMu sync.Mutex
	fl.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		simMu.Lock()
		env := sim.CapsuleEnvironment(hour)
		simMu.Unlock()
		// Spatial gradient: a slow leak near x ≈ 3 m.
		env.RelativeHumidity += 10 / (1 + (pos.X-3)*(pos.X-3))
		return env
	})
	if up := fl.Charge(0.5); up != len(capsules) {
		t.Fatalf("fleet powered %d/%d", up, len(capsules))
	}
	found := fl.Inventory(16)
	if len(found) != len(capsules) {
		t.Fatalf("fleet inventory found %d/%d", len(found), len(capsules))
	}

	// ---- 3. Stream a week of readings over the wire protocol. ---------
	srv, err := shmwire.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogf(func(string, ...any) {})
	defer srv.Close()
	cl, err := shmwire.Dial(srv.Addr().String(), "system-test")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && srv.Subscribers() == 0 {
		time.Sleep(2 * time.Millisecond)
	}

	const days = 7
	sent := 0
	for day := 0; day < days; day++ {
		hour = day*24 + 12
		for _, h := range found {
			vals, err := fl.ReadSensor(h, sensors.TypeTempHumidity)
			if err != nil {
				t.Fatalf("day %d capsule %#04x: %v", day, h, err)
			}
			srv.BroadcastTelemetry(shmwire.Telemetry{
				Timestamp:    sim.Start().AddDate(0, 0, day),
				CapsuleID:    h,
				TemperatureC: vals[0],
				Humidity:     vals[1],
			})
			sent++
		}
	}

	// ---- 4. The subscriber reconstructs per-capsule series. -----------
	series := map[uint16][]float64{}
	cl.SetDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < sent; i++ {
		ev, err := cl.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Type != shmwire.MsgTelemetry {
			t.Fatalf("unexpected event %v", ev.Type)
		}
		tele := ev.Telemetry
		series[tele.CapsuleID] = append(series[tele.CapsuleID], tele.Humidity)
	}
	if len(series) != len(capsules) {
		t.Fatalf("subscriber saw %d capsules, want %d", len(series), len(capsules))
	}

	// ---- 5. Degradation analytics on the received data. ---------------
	// The leak-adjacent capsule (x=1.5+3.2 ≈ index 0/1) reports higher
	// humidity than the far end.
	nearLeak := series[0xA0]
	farEnd := series[0xA5]
	var nearMean, farMean float64
	for i := range nearLeak {
		nearMean += nearLeak[i]
		farMean += farEnd[i]
	}
	nearMean /= float64(len(nearLeak))
	farMean /= float64(len(farEnd))
	if nearMean <= farMean {
		t.Errorf("leak-adjacent capsule (%.1f %%RH) must exceed the far end (%.1f)", nearMean, farMean)
	}
	// Trend fitting on the received series runs cleanly (a week of flat
	// data: no alarm).
	ts := make([]float64, len(nearLeak))
	for i := range ts {
		ts[i] = float64(i)
	}
	rep, err := shm.Assess("humidity", ts, nearLeak, 120, 365)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alarming {
		t.Errorf("a flat week must not alarm: %+v", rep)
	}

	// ---- 6. Modal health closes the loop. ------------------------------
	est, err := shm.EstimateNaturalFrequency(sim.VibrationBurst(12, 50, 120), 50, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx := shm.ModalDamageIndex(bridge.HealthyFundamentalHz, est.FrequencyHz)
	if shm.ClassifyModalDamage(idx) != shm.DamageNone {
		t.Errorf("healthy structure classified %v (index %g)", shm.ClassifyModalDamage(idx), idx)
	}
}
