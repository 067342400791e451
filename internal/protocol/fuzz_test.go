package protocol

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// goldenUplinks are uplink frames as a capsule backscatters them — handle ‖
// kind ‖ reading ‖ CRC16 — pinned byte for byte: a temperature/humidity
// reply, a strain reply and an arbitration reply.
var goldenUplinks = []struct {
	frame UplinkFrame
	wire  string
}{
	{UplinkFrame{Handle: 0x0010, Kind: 0x01, Data: []byte{0xb5, 0xc2, 0x96, 0x4c, 0xcd}}, "001001b5c2964ccd6566"},
	{UplinkFrame{Handle: 0x0010, Kind: 0x02, Data: []byte{0x00, 0x01, 0xd4, 0xc0, 0xff, 0xfe, 0xb3, 0xe0}}, "0010020001d4c0fffeb3e0554d"},
	{UplinkFrame{Handle: 0x0a51, Kind: 0x00}, "0a5100c92c"},
}

// goldenDownlinks are reader commands as the capsule's PIE decoder hands
// them to the MCU — preamble ‖ cmd ‖ target ‖ len ‖ payload ‖ CRC16.
var goldenDownlinks = []struct {
	packet Packet
	wire   string
}{
	{Packet{Cmd: CmdReadSensor, Target: 0x0010, Payload: []byte{0x01}}, "aa3c05001001015f3b"},
	{Packet{Cmd: CmdQuery, Target: Broadcast, Payload: []byte{0x02}}, "aa3c01ffff010221fd"},
	{Packet{Cmd: CmdQueryRep, Target: Broadcast}, "aa3c02ffff0030f4"},
	{Packet{Cmd: Command(0x04), Target: 0x0a51, Payload: []byte{0x00, 0x14}}, "aa3c040a51020014ade7"}, // retired opcode, two-byte payload
}

func mustHex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestGoldenFrames pins the wire format: every golden frame marshals to
// its pinned bytes, also when appended after a caller's prefix.
func TestGoldenFrames(t *testing.T) {
	prefix := []byte{0x55, 0x66}
	for _, g := range goldenUplinks {
		want := mustHex(t, g.wire)
		if got := g.frame.AppendMarshal(nil); !bytes.Equal(got, want) {
			t.Errorf("uplink %+v: %x, want %x", g.frame, got, want)
		}
		if got := g.frame.AppendMarshal(prefix[:2:2]); !bytes.Equal(got, append(prefix[:2:2], want...)) {
			t.Errorf("uplink %+v after a prefix: %x", g.frame, got)
		}
	}
	for _, g := range goldenDownlinks {
		want := mustHex(t, g.wire)
		if got := g.packet.AppendMarshal(nil); !bytes.Equal(got, want) {
			t.Errorf("downlink %+v: %x, want %x", g.packet, got, want)
		}
		if got := g.packet.AppendMarshal(prefix[:2:2]); !bytes.Equal(got, append(prefix[:2:2], want...)) {
			t.Errorf("downlink %+v after a prefix: %x", g.packet, got)
		}
	}
}

// checkView fails unless view is exactly frame[from:end] and appending to
// it leaves frame — its CRC included — untouched.
func checkView(t *testing.T, what string, frame, view []byte, from, end int) {
	if len(view) == 0 {
		if view != nil {
			t.Fatalf("empty %s must be nil", what)
		}
		return
	}
	if &view[0] != &frame[from] || len(view) != end-from {
		t.Fatalf("%s is not the view frame[%d:%d]", what, from, end)
	}
	if cap(view) != len(view) {
		t.Fatalf("%s view has capacity %d past its %d bytes: it reaches the CRC", what, cap(view), len(view))
	}
	before := append([]byte(nil), frame...)
	_ = append(view, 0xFF, 0xFF)
	if !bytes.Equal(frame, before) {
		t.Fatalf("appending to the %s view overwrote the frame", what)
	}
}

// FuzzUnmarshalUplink feeds arbitrary bytes to the reader's uplink parser.
// It must never panic; a frame it accepts must re-marshal to exactly the
// input bytes; and the parsed Data must be a view that ends before the CRC.
func FuzzUnmarshalUplink(f *testing.F) {
	for _, g := range goldenUplinks {
		f.Add(mustHex(f, g.wire))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x10, 0x01, 0x00}) // shorter than handle ‖ kind ‖ CRC
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := UnmarshalUplink(data)
		if err != nil {
			return
		}
		if got := u.AppendMarshal(nil); !bytes.Equal(got, data) {
			t.Fatalf("re-marshal %x, parsed from %x", got, data)
		}
		checkView(t, "Data", data, u.Data, 3, len(data)-2)
	})
}

// FuzzUnmarshal feeds arbitrary bytes to the downlink parser every capsule
// runs on what its PIE decoder recovered. It must never panic; a frame it
// accepts must re-marshal to exactly the input bytes; and the parsed
// Payload must be a view that ends before the CRC.
func FuzzUnmarshal(f *testing.F) {
	for _, g := range goldenDownlinks {
		f.Add(mustHex(f, g.wire))
	}
	f.Add([]byte{})
	f.Add([]byte{0xaa, 0x3c, 0x05, 0x00, 0x10, 0x09, 0x01, 0x5f, 0x3b}) // length byte past the end
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		if got := p.AppendMarshal(nil); !bytes.Equal(got, data) {
			t.Fatalf("re-marshal %x, parsed from %x", got, data)
		}
		checkView(t, "Payload", data, p.Payload, 6, len(data)-2)
	})
}
