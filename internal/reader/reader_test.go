package reader

import (
	"testing"

	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/sensors"
)

func wallConfig() Config {
	return Config{
		Structure:    geometry.CommonWall(),
		TXPosition:   geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		RXPosition:   geometry.Vec3{X: 0.3, Y: 10, Z: 0},
		DriveVoltage: 200,
		Seed:         1,
	}
}

func deployNode(t testing.TB, r *Reader, handle uint16, x float64) *node.Node {
	t.Helper()
	n := node.New(node.Config{
		Handle:   handle,
		Position: geometry.Vec3{X: x, Y: 10, Z: 0.1},
		Seed:     int64(handle),
	})
	if err := r.Deploy(n); err != nil {
		t.Fatalf("deploy %#04x: %v", handle, err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil structure must error")
	}
	cfg := wallConfig()
	cfg.DriveVoltage = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero voltage must error")
	}
	cfg.DriveVoltage = 400
	if _, err := New(cfg); err == nil {
		t.Error("voltage above the amplifier ceiling must error")
	}
}

func TestDeployValidation(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	outside := node.New(node.Config{Handle: 1, Position: geometry.Vec3{X: 50, Y: 1, Z: 0.1}})
	if err := r.Deploy(outside); err == nil {
		t.Error("node outside the structure must be rejected")
	}
	deployNode(t, r, 2, 1.0)
	if len(r.Nodes()) != 1 {
		t.Errorf("node count %d", len(r.Nodes()))
	}
}

// TestDeployRejectsDuplicateHandle pins that a handle is deployed once: a
// second node with the same handle is refused, leaving the first one
// deployed and addressable.
func TestDeployRejectsDuplicateHandle(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := deployNode(t, r, 0x10, 1.0)
	dup := node.New(node.Config{Handle: 0x10, Position: geometry.Vec3{X: 3, Y: 10, Z: 0.1}, Seed: 2})
	if err := r.Deploy(dup); err == nil {
		t.Fatal("deploying a second node with handle 0x10 must fail")
	}
	if nodes := r.Nodes(); len(nodes) != 1 || nodes[0] != first {
		t.Fatalf("deployed nodes %v, want only the first 0x10", nodes)
	}
	// The first node's link survives: it still charges from 1 m away.
	if up := r.Charge(0.2); up != 1 || !first.PoweredUp() {
		t.Fatalf("first node must still power up (up=%d)", up)
	}
	if _, err := r.ReadSensor(0x10, sensors.TypeTempHumidity); err != nil {
		t.Fatalf("read of the first node: %v", err)
	}
}

func TestChargePowersNearNode(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := deployNode(t, r, 0x10, 1.0)
	up := r.Charge(0.2)
	if up != 1 || !n.PoweredUp() {
		t.Fatalf("node 1 m away at 200 V must power up (up=%d state=%v, vin=%.3f V)",
			up, n.State(), n.Vin())
	}
}

func TestChargeFailsAtLowVoltage(t *testing.T) {
	cfg := wallConfig()
	cfg.DriveVoltage = 5
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := deployNode(t, r, 0x11, 6.0)
	if up := r.Charge(0.2); up != 0 || n.PoweredUp() {
		t.Errorf("node 6 m away at 5 V must stay dormant (state %v)", n.State())
	}
}

func TestNodeAmplitudeDecaysWithDistance(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	deployNode(t, r, 1, 0.5)
	deployNode(t, r, 2, 3.0)
	v1, err := r.NodeAmplitude(1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.NodeAmplitude(2)
	if err != nil {
		t.Fatal(err)
	}
	if v1 <= v2 {
		t.Errorf("closer node must see more amplitude: %.3f vs %.3f", v1, v2)
	}
	if _, err := r.NodeAmplitude(99); err == nil {
		t.Error("unknown handle must error")
	}
}

func TestInventoryDiscoversAllNodes(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	handles := []uint16{0x01, 0x02, 0x03, 0x04, 0x05}
	for i, h := range handles {
		deployNode(t, r, h, 0.5+float64(i)*0.3)
	}
	if up := r.Charge(0.3); up != len(handles) {
		t.Fatalf("only %d/%d nodes powered up", up, len(handles))
	}
	res := r.Inventory(24)
	if len(res.Discovered) != len(handles) {
		t.Fatalf("inventory found %v, want all of %v (rounds=%d)",
			res.Discovered, handles, res.Rounds)
	}
	for i, h := range handles {
		if res.Discovered[i] != h {
			t.Errorf("discovered[%d] = %#04x, want %#04x", i, res.Discovered[i], h)
		}
	}
}

func TestInventoryOnlyFindsPoweredNodes(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	near := deployNode(t, r, 0x01, 0.8)
	deployNode(t, r, 0x02, 19.5) // far beyond the power-up range at 200 V
	r.Charge(0.3)
	if !near.PoweredUp() {
		t.Fatal("near node must power up")
	}
	res := r.Inventory(16)
	if len(res.Discovered) != 1 || res.Discovered[0] != 0x01 {
		t.Errorf("inventory must find exactly the powered node, got %v", res.Discovered)
	}
}

func TestReadSensorThroughReader(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		return sensors.Environment{TemperatureC: 29.5, RelativeHumidity: 71}
	})
	deployNode(t, r, 0x21, 1.2)
	r.Charge(0.3)
	vals, err := r.ReadSensor(0x21, sensors.TypeTempHumidity)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] < 27 || vals[0] > 32 {
		t.Errorf("temperature %v implausible", vals)
	}
	if _, err := r.ReadSensor(0x99, sensors.TypeStrain); err == nil {
		t.Error("unknown node must error")
	}
}

// readSensorAllocs is the steady-state heap object count of one fault-free,
// untraced ReadSensor: the sample's wire bytes, the node's reply, the
// reply's wire frame, the parsed reply's data and the decoded values. The
// silent-node error is a package sentinel, not built per read.
const readSensorAllocs = 5

func TestReadSensorAllocs(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		return sensors.Environment{TemperatureC: 29.5, RelativeHumidity: 71}
	})
	deployNode(t, r, 0x21, 1.2)
	r.Charge(0.3)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.ReadSensor(0x21, sensors.TypeTempHumidity); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > readSensorAllocs {
		t.Errorf("fault-free ReadSensor allocated %.1f objects/op, want <= %d", allocs, readSensorAllocs)
	}
}

func TestSetDriveVoltage(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetDriveVoltage(100); err != nil || r.DriveVoltage() != 100 {
		t.Errorf("SetDriveVoltage: %v (%g)", err, r.DriveVoltage())
	}
	if err := r.SetDriveVoltage(0); err == nil {
		t.Error("zero voltage must error")
	}
	if err := r.SetDriveVoltage(9999); err == nil {
		t.Error("over-ceiling voltage must error")
	}
}

func TestMaxPowerUpRangeGrowsWithVoltage(t *testing.T) {
	cfg := wallConfig()
	r50, err := MaxPowerUpRange(cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	r200, err := MaxPowerUpRange(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r200 <= r50 {
		t.Errorf("range must grow with voltage: %.2f m @50 V vs %.2f m @200 V", r50, r200)
	}
	if r50 < 0.3 {
		t.Errorf("50 V range %.2f m implausibly short", r50)
	}
	if _, err := MaxPowerUpRange(cfg, 0); err == nil {
		t.Error("invalid voltage must error")
	}
}

func TestMaxPowerUpRangeNarrowBeatsWide(t *testing.T) {
	// §5.2 finding 2: the 20 cm wall (S3) confines energy better than the
	// 50 cm wall (S4) at the same voltage.
	s3 := Config{Structure: geometry.CommonWall(), TXPosition: geometry.Vec3{X: 0.1, Y: 10, Z: 0}, DriveVoltage: 200}
	s4 := Config{Structure: geometry.ProtectiveWall(), TXPosition: geometry.Vec3{X: 0.1, Y: 10, Z: 0}, DriveVoltage: 200}
	r3, err := MaxPowerUpRange(s3, 200)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := MaxPowerUpRange(s4, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r3 <= r4 {
		t.Errorf("S3 (%.2f m) must out-range S4 (%.2f m) at 200 V", r3, r4)
	}
}
