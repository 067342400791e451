package fleet

import (
	"errors"
	"strings"
	"testing"

	"ecocapsule/internal/deploy"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/sensors"
)

// wallFleet plans stations over the full 20 m wall and builds a fleet for
// capsules spread along it — farther apart than any single reader's range.
func wallFleet(t *testing.T) (*Fleet, []*node.Node) {
	t.Helper()
	wall := geometry.CommonWall()
	var capsules []*node.Node
	var positions []geometry.Vec3
	for i, x := range []float64{1.0, 6.0, 12.0, 18.0} {
		pos := geometry.Vec3{X: x, Y: 10, Z: 0.1}
		positions = append(positions, pos)
		capsules = append(capsules, node.New(node.Config{
			Handle:   uint16(0x80 + i),
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
	f, err := New(wall, plan, capsules, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f, capsules
}

func TestFleetChargesBeyondSingleReaderRange(t *testing.T) {
	f, capsules := wallFleet(t)
	if f.Stations() < 2 {
		t.Fatalf("a 20 m wall needs several stations, got %d", f.Stations())
	}
	up := f.Charge(0.4)
	if up != len(capsules) {
		for _, n := range capsules {
			t.Logf("capsule %#04x: state %v vin %.3f (best station %d)",
				n.Handle(), n.State(), n.Vin(), f.BestStation(n.Handle()))
		}
		t.Fatalf("fleet powered %d/%d capsules", up, len(capsules))
	}
}

func TestFleetInventoryMergesStations(t *testing.T) {
	f, capsules := wallFleet(t)
	f.Charge(0.4)
	found := f.Inventory(16)
	if len(found) != len(capsules) {
		t.Fatalf("fleet inventory found %v, want all %d capsules", found, len(capsules))
	}
	for i, h := range found {
		if h != uint16(0x80+i) {
			t.Errorf("found[%d] = %#04x", i, h)
		}
	}
}

func TestFleetReadSensorRoutesToBestStation(t *testing.T) {
	f, _ := wallFleet(t)
	f.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		return sensors.Environment{TemperatureC: 20 + pos.X, RelativeHumidity: 60}
	})
	f.Charge(0.4)
	// The capsule at x=18 m reports a temperature near 38 °C, proving the
	// read went through (and the env sampler saw its position).
	vals, err := f.ReadSensor(0x83, sensors.TypeTempHumidity)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] < 36 || vals[0] > 40 {
		t.Errorf("capsule 0x83 temperature %.1f, want ≈38", vals[0])
	}
	if _, err := f.ReadSensor(0xEE, sensors.TypeStrain); err == nil {
		t.Error("unknown capsule must error")
	}
}

func TestFleetCoverageAccounting(t *testing.T) {
	f, capsules := wallFleet(t)
	cov := f.Coverage()
	if len(cov) != f.Stations() {
		t.Fatalf("coverage length %d", len(cov))
	}
	total := 0
	for _, c := range cov {
		total += c
	}
	if total != len(capsules) {
		t.Errorf("coverage sums to %d, want %d", total, len(capsules))
	}
	// Capsules at opposite ends must be served by different stations.
	if f.BestStation(0x80) == f.BestStation(0x83) {
		t.Error("capsules 17 m apart cannot share a best station")
	}
}

func TestFleetValidation(t *testing.T) {
	wall := geometry.CommonWall()
	capsule := node.New(node.Config{Handle: 1, Position: geometry.Vec3{X: 1, Y: 10, Z: 0.1}})
	if _, err := New(wall, deploy.Plan{}, []*node.Node{capsule}, 1); !errors.Is(err, ErrNoStations) {
		t.Errorf("no stations: %v", err)
	}
	plan, err := deploy.Cover(wall, []geometry.Vec3{{X: 1, Y: 10, Z: 0.1}}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(wall, plan, nil, 1); !errors.Is(err, ErrNoNodes) {
		t.Errorf("no nodes: %v", err)
	}
	// A capsule outside the structure fails deployment.
	outside := node.New(node.Config{Handle: 2, Position: geometry.Vec3{X: 99, Y: 10, Z: 0.1}})
	if _, err := New(wall, plan, []*node.Node{outside}, 1); err == nil {
		t.Error("capsule outside the wall must fail fleet construction")
	}
}

// TestFleetRejectsDuplicateHandles pins construction-time validation: two
// capsules sharing a handle would share one amplitude row and one shard
// slot, so the fleet would silently monitor only one of them. Both the flat
// and the sharded constructor must refuse them, whatever their positions.
func TestFleetRejectsDuplicateHandles(t *testing.T) {
	wall := geometry.CommonWall()
	near := geometry.Vec3{X: 1, Y: 10, Z: 0.1}
	far := geometry.Vec3{X: 18, Y: 10, Z: 0.1}
	plan, err := deploy.Cover(wall, []geometry.Vec3{near, far}, 200)
	if err != nil {
		t.Fatal(err)
	}
	capsules := []*node.Node{
		node.New(node.Config{Handle: 0x80, Position: near, Seed: 1}),
		node.New(node.Config{Handle: 0x80, Position: far, Seed: 2}),
	}
	if _, err := New(wall, plan, capsules, 1); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("flat fleet with a duplicate handle: err = %v, want a duplicate-handle error", err)
	}
	if _, err := NewSharded(wall, plan, capsules, 1, Options{Shards: 2}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("sharded fleet with a duplicate handle: err = %v, want a duplicate-handle error", err)
	}
}

func TestFleetBestStationUnknownHandle(t *testing.T) {
	f, _ := wallFleet(t)
	if f.BestStation(0xFFFE) != -1 {
		t.Error("unknown handle must report -1")
	}
}
