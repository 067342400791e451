package node

import (
	"testing"

	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/units"
)

func newTestNode(seed int64) *Node {
	return New(Config{
		Handle:   0x0042,
		Position: geometry.Vec3{X: 1, Y: 0.25, Z: 0.07},
		Seed:     seed,
	})
}

// powerUp drives the node through cold start with a strong excitation.
func powerUp(t *testing.T, n *Node) {
	t.Helper()
	cs := material.UHPC().VS()
	for i := 0; i < 1000 && !n.PoweredUp(); i++ {
		n.Excite(2.0, 230*units.KHz, cs, units.MS)
	}
	if !n.PoweredUp() {
		t.Fatal("node failed to power up under strong excitation")
	}
}

func TestColdStartSequence(t *testing.T) {
	n := newTestNode(1)
	if n.State() != Dormant {
		t.Fatalf("initial state %v", n.State())
	}
	cs := material.UHPC().VS()
	// Weak excitation: stays dormant.
	n.Excite(0.05, 230*units.KHz, cs, units.MS)
	if n.State() != Dormant {
		t.Errorf("0.05 V should not start boot, state %v", n.State())
	}
	// Strong excitation: cold-start then standby.
	n.Excite(2.0, 230*units.KHz, cs, units.MS)
	if n.State() != ColdStarting {
		t.Errorf("2 V should begin cold start, state %v", n.State())
	}
	for i := 0; i < 100 && n.State() == ColdStarting; i++ {
		n.Excite(2.0, 230*units.KHz, cs, units.MS)
	}
	if n.State() != Standby {
		t.Errorf("cold start should complete in a few ms at 2 V, state %v", n.State())
	}
}

func TestColdStartAbortOnPowerLoss(t *testing.T) {
	n := newTestNode(2)
	cs := material.UHPC().VS()
	n.Excite(2.0, 230*units.KHz, cs, units.MS)
	if n.State() != ColdStarting {
		t.Fatal("expected cold start")
	}
	n.Excite(0.01, 230*units.KHz, cs, units.MS)
	if n.State() != Dormant {
		t.Errorf("losing excitation must abort the boot, state %v", n.State())
	}
}

func TestHRABoostsWeakExcitation(t *testing.T) {
	// An amplitude just below the raw threshold can activate thanks to
	// the Helmholtz array gain at resonance.
	n := newTestNode(3)
	cs := material.UHPC().VS()
	raw := 0.35 // below the 0.5 V activation threshold
	n.Excite(raw, n.cfg.HRA.Cell.ResonantFrequency(cs), cs, units.MS)
	if n.Vin() <= raw {
		t.Errorf("HRA must amplify the incident wave: vin %g", n.Vin())
	}
	if n.State() == Dormant {
		t.Error("HRA gain should lift 0.35 V over the activation threshold at resonance")
	}
}

func TestDownlinkRequiresPower(t *testing.T) {
	n := newTestNode(4)
	_, _, err := n.HandleDownlink(protocol.Packet{Cmd: protocol.CmdQuery, Target: protocol.Broadcast}, sensors.Environment{}, nil)
	if err != ErrNotPowered {
		t.Errorf("dormant node must return ErrNotPowered, got %v", err)
	}
}

func TestAddressFiltering(t *testing.T) {
	n := newTestNode(5)
	powerUp(t, n)
	_, _, err := n.HandleDownlink(protocol.Packet{Cmd: protocol.CmdReadSensor, Target: 0x9999,
		Payload: []byte{byte(sensors.TypeStrain)}}, sensors.Environment{}, nil)
	if err != ErrNotForMe {
		t.Errorf("foreign address must be ignored, got %v", err)
	}
}

func TestReadSensorRoundTrip(t *testing.T) {
	n := newTestNode(6)
	powerUp(t, n)
	env := sensors.Environment{TemperatureC: 31, RelativeHumidity: 82}
	up, ok, err := n.HandleDownlink(protocol.Packet{
		Cmd: protocol.CmdReadSensor, Target: 0x0042,
		Payload: []byte{byte(sensors.TypeTempHumidity)},
	}, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ReadSensor must produce an uplink frame")
	}
	if up.Handle != 0x0042 || up.Kind != byte(sensors.TypeTempHumidity) {
		t.Errorf("frame header wrong: %+v", up)
	}
	vals, err := sensors.Decode(sensors.SensorType(up.Kind), up.Data)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] < 28 || vals[0] > 34 {
		t.Errorf("temperature decode implausible: %v", vals)
	}
	// The reading lands in the caller's buffer, after what it holds.
	buf := make([]byte, 1, 16)
	up, _, err = n.HandleDownlink(protocol.Packet{
		Cmd: protocol.CmdReadSensor, Target: 0x0042,
		Payload: []byte{byte(sensors.TypeStrain)},
	}, env, buf)
	if err != nil || len(up.Data) != 1+8 || &up.Data[0] != &buf[0] {
		t.Errorf("strain reply must append to the caller's buffer: %v %x", err, up.Data)
	}
}

func TestReadUnknownSensor(t *testing.T) {
	n := newTestNode(7)
	powerUp(t, n)
	// 0x00 sits below the type list, 0x04 just past it, 0x7E and 0xFF far
	// past it.
	for _, b := range []byte{0x00, 0x04, 0x7E, 0xFF} {
		_, _, err := n.HandleDownlink(protocol.Packet{
			Cmd: protocol.CmdReadSensor, Target: protocol.Broadcast,
			Payload: []byte{b},
		}, sensors.Environment{}, nil)
		if err != ErrNoSensor {
			t.Errorf("unknown sensor %#02x must error, got %v", b, err)
		}
	}
	_, _, err := n.HandleDownlink(protocol.Packet{
		Cmd: protocol.CmdReadSensor, Target: protocol.Broadcast,
	}, sensors.Environment{}, nil)
	if err != ErrNoSensor {
		t.Errorf("missing payload must error, got %v", err)
	}
}

func TestInventoryRound(t *testing.T) {
	n := newTestNode(8)
	powerUp(t, n)
	env := sensors.Environment{}
	// Query with Q=2 → slot in [0,4).
	up, ok, err := n.HandleDownlink(protocol.Packet{
		Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{2},
	}, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	if ok {
		replies++
	}
	// Drive QueryReps until the node replies (at most 4).
	for i := 0; i < 4 && replies == 0; i++ {
		up, ok, err = n.HandleDownlink(protocol.Packet{
			Cmd: protocol.CmdQueryRep, Target: protocol.Broadcast,
		}, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			replies++
		}
	}
	if replies != 1 {
		t.Fatalf("node must reply exactly once per round, got %d", replies)
	}
	if n.State() != Replying {
		t.Errorf("state after reply = %v, want Replying", n.State())
	}
	// Ack closes the handshake.
	if _, _, err := n.HandleDownlink(protocol.Packet{
		Cmd: protocol.CmdAck, Target: protocol.Broadcast,
	}, env, nil); err != nil {
		t.Fatal(err)
	}
	if n.State() != Standby {
		t.Errorf("state after Ack = %v, want Standby", n.State())
	}
	// Further QueryReps in the closed round stay silent.
	up, ok, err = n.HandleDownlink(protocol.Packet{
		Cmd: protocol.CmdQueryRep, Target: protocol.Broadcast,
	}, env, nil)
	if err != nil || ok {
		t.Errorf("closed round must stay silent: %v %v", up, err)
	}
}

func TestSetBLF(t *testing.T) {
	n := newTestNode(9)
	powerUp(t, n)
	if n.BLF() != 2*units.KHz {
		t.Errorf("default BLF = %g", n.BLF())
	}
	_, _, err := n.HandleDownlink(protocol.Packet{
		Cmd: protocol.CmdSetBLF, Target: 0x0042,
		Payload: []byte{0x00, 0x28}, // 40 × 100 Hz = 4 kHz
	}, sensors.Environment{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.BLF() != 4*units.KHz {
		t.Errorf("BLF after SetBLF = %g, want 4 kHz", n.BLF())
	}
}

func TestSleepCommand(t *testing.T) {
	n := newTestNode(10)
	powerUp(t, n)
	// Enter a round then sleep.
	if _, _, err := n.HandleDownlink(protocol.Packet{Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{3}}, sensors.Environment{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.HandleDownlink(protocol.Packet{Cmd: protocol.CmdSleep, Target: protocol.Broadcast}, sensors.Environment{}, nil); err != nil {
		t.Fatal(err)
	}
	if n.State() != Standby {
		t.Errorf("after Sleep: %v", n.State())
	}
}

func TestUnsupportedCommand(t *testing.T) {
	n := newTestNode(11)
	powerUp(t, n)
	if _, _, err := n.HandleDownlink(protocol.Packet{Cmd: protocol.Command(0x77), Target: protocol.Broadcast}, sensors.Environment{}, nil); err == nil {
		t.Error("unknown command must error")
	}
}

func TestPowerLossDropsToDormant(t *testing.T) {
	n := newTestNode(12)
	powerUp(t, n)
	cs := material.UHPC().VS()
	n.Excite(0.01, 230*units.KHz, cs, units.MS)
	if n.State() != Dormant {
		t.Errorf("power loss must drop to dormant, state %v", n.State())
	}
}

func TestEmbedCheck(t *testing.T) {
	n := newTestNode(13)
	if err := n.EmbedCheck(2300, 50); err != nil {
		t.Errorf("50 m embedment must pass: %v", err)
	}
	if err := n.EmbedCheck(2300, 500); err == nil {
		t.Error("500 m embedment must fail the resin shell")
	}
}

// TestDefaultShellSharesOneResin: nodes configured without a shell share
// one resin Material, equal to the published prototype's, instead of
// holding a copy each; a configured shell is kept as given.
func TestDefaultShellSharesOneResin(t *testing.T) {
	a, b := newTestNode(15), newTestNode(16)
	if a.cfg.Shell.Material != b.cfg.Shell.Material {
		t.Fatal("two default nodes hold distinct resin materials, want one shared")
	}
	want := physics.ResinShell()
	got := a.cfg.Shell
	if *got.Material != *want.Material || got.OuterDiameter != want.OuterDiameter ||
		got.WallThickness != want.WallThickness || got.MaxPressureDelta != want.MaxPressureDelta {
		t.Errorf("default shell %+v (material %+v), want the resin prototype %+v (material %+v)",
			got, *got.Material, want, *want.Material)
	}
	steel := physics.SteelShell()
	if n := New(Config{Handle: 0x0017, Shell: steel}); n.cfg.Shell != steel {
		t.Error("a configured shell was replaced")
	}
}

func TestPowerDrawByState(t *testing.T) {
	n := newTestNode(14)
	sleep := n.PowerDraw(1000)
	if sleep > units.UW {
		t.Errorf("dormant draw %g W too high", sleep)
	}
	powerUp(t, n)
	standby := n.PowerDraw(0)
	if standby < 70e-6 || standby > 90e-6 {
		t.Errorf("standby draw %g W, want ≈80 µW", standby)
	}
	// Force replying via a broadcast round with Q=0 (always slot 0).
	up, ok, err := n.HandleDownlink(protocol.Packet{Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{0}}, sensors.Environment{}, nil)
	if err != nil || !ok {
		t.Fatalf("Q=0 must reply immediately: %v %v", up, err)
	}
	active := n.PowerDraw(1000)
	if active < 300e-6 || active > 400e-6 {
		t.Errorf("replying draw %g W, want ≈360 µW", active)
	}
}

func TestStatsCount(t *testing.T) {
	n := newTestNode(15)
	powerUp(t, n)
	if _, _, err := n.HandleDownlink(protocol.Packet{Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{0}}, sensors.Environment{}, nil); err != nil {
		t.Fatal(err)
	}
	frames, cmds := n.Stats()
	if frames != 1 || cmds != 1 {
		t.Errorf("stats = (%d, %d), want (1, 1)", frames, cmds)
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		Dormant: "dormant", ColdStarting: "cold-starting",
		Standby: "standby", Arbitrating: "arbitrating", Replying: "replying",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state must format")
	}
}
