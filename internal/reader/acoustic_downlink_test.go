package reader

import (
	"testing"

	"ecocapsule/internal/protocol"
	"ecocapsule/internal/sensors"
)

func TestAcousticBroadcastDeliversCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	// The full acoustic downlink: one FSK waveform, three capsules, each
	// decoding through its own channel before the MCU acts on the packet.
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Positions sit clear of the FSK fade bands of the 60° prism channel
	// (the envelope FSK contrast collapses in narrow multipath notches).
	for i, x := range []float64{1.05, 1.2, 1.35} {
		deployNode(t, r, uint16(0x41+i), x)
	}
	if up := r.Charge(0.3); up != 3 {
		t.Fatalf("only %d/3 capsules powered up", up)
	}
	// Broadcast a Query with Q=0: every capsule replies immediately.
	out, err := r.AcousticBroadcast(protocol.Packet{
		Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{0},
	}, DefaultAcousticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered != 3 {
		t.Errorf("delivered %d/3 (corrupted %d, unpowered %d)",
			out.Delivered, out.Corrupted, out.Unpowered)
	}
	if len(out.Replies) != 3 {
		t.Errorf("Q=0 must solicit 3 replies, got %d", len(out.Replies))
	}
}

func TestAcousticBroadcastAddressedReadSensor(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	deployNode(t, r, 0x51, 0.8)
	deployNode(t, r, 0x52, 1.3)
	r.Charge(0.3)
	// Address only 0x52 with §3.5 carrier auto-tuning: one solicited
	// reply; the other capsule hears correctly or sits in a fade (its
	// outcome does not matter for the addressed read).
	cfg := DefaultAcousticConfig()
	cfg.AutoTune = true
	out, err := r.AcousticBroadcast(protocol.Packet{
		Cmd: protocol.CmdReadSensor, Target: 0x52,
		Payload: []byte{byte(sensors.TypeStrain)},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered < 1 {
		t.Errorf("the addressed capsule must decode the tuned frame: %+v", out)
	}
	if len(out.Replies) != 1 || out.Replies[0].Handle != 0x52 {
		t.Errorf("exactly the addressed capsule must reply: %+v", out.Replies)
	}
}

func TestAcousticBroadcastUnpoweredCounted(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	deployNode(t, r, 0x61, 1.2)
	// No Charge: the capsule is dormant but its channel still carries the
	// wave; the MCU cannot act. (The capsule sits well clear of the FSK
	// fade bands so the frame itself decodes — only the MCU is down.)
	out, err := r.AcousticBroadcast(protocol.Packet{
		Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{0},
	}, DefaultAcousticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Unpowered != 1 || out.Delivered != 0 {
		t.Errorf("dormant capsule must count as unpowered: %+v", out)
	}
}

func TestAcousticBroadcastHighNoiseCorrupts(t *testing.T) {
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	deployNode(t, r, 0x71, 1.0)
	r.Charge(0.3)
	cfg := DefaultAcousticConfig()
	cfg.NoiseSigma = 3.0
	out, err := r.AcousticBroadcast(protocol.Packet{
		Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{0},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Corrupted != 1 {
		t.Errorf("a drowned downlink must corrupt: %+v", out)
	}
}

func TestAcousticBroadcastSlowSymbolsExtendRange(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	// A node 1.6 m into the reverberant wall (delay spread ≈0.7 ms) loses
	// the 1 kbps downlink because the channel tail fills the 0.5 ms low
	// edges; tripling the symbol duration restores decodability — the
	// dispersive-channel trade-off at acoustic scale.
	mk := func() *Reader {
		r, err := New(wallConfig())
		if err != nil {
			t.Fatal(err)
		}
		deployNode(t, r, 0x43, 1.6)
		r.Charge(0.3)
		return r
	}
	p := protocol.Packet{Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{0}}

	fast, err := mk().AcousticBroadcast(p, DefaultAcousticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Delivered != 0 {
		t.Skip("1 kbps unexpectedly survived the reverberation; slow-symbol case subsumed")
	}
	slow := DefaultAcousticConfig()
	slow.DownlinkSymbolScale = 3
	out, err := mk().AcousticBroadcast(p, slow)
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered != 1 {
		t.Errorf("3x symbols must deliver: %+v", out)
	}
}

// BenchmarkAcousticBroadcast times a warm 3-capsule acoustic downlink: one
// FSK Query (Q = 0) through each capsule's channel and envelope decoder,
// per op a charge then one broadcast. The capsules sit where
// TestAcousticBroadcastDeliversCommands delivers to all three.
func BenchmarkAcousticBroadcast(b *testing.B) {
	r, err := New(wallConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i, x := range []float64{1.05, 1.2, 1.35} {
		deployNode(b, r, uint16(0x41+i), x)
	}
	p := protocol.Packet{Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{0}}
	cfg := DefaultAcousticConfig()
	r.Charge(0.3)
	r.AcousticBroadcast(p, cfg) // warm channels
	b.ReportAllocs()
	for b.Loop() {
		r.Charge(0.3)
		if out, err := r.AcousticBroadcast(p, cfg); err != nil || out.Delivered != 3 {
			b.Fatalf("broadcast delivered %d/3 (%v)", out.Delivered, err)
		}
	}
}
