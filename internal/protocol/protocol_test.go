package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// TestAppendHandle: AppendHandle spells every handle as fmt's "0x%04x".
func TestAppendHandle(t *testing.T) {
	for h := 0; h <= 0xffff; h++ {
		got := string(AppendHandle([]byte("at "), uint16(h)))
		if want := fmt.Sprintf("at 0x%04x", h); got != want {
			t.Fatalf("AppendHandle(%d) = %q, want %q", h, got, want)
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{Cmd: CmdReadSensor, Target: 0x1234, Payload: []byte{0x01}}
	frame := p.AppendMarshal(nil)
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmd != p.Cmd || got.Target != p.Target || !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(cmd byte, target uint16, payload []byte) bool {
		if len(payload) > 200 {
			payload = payload[:200]
		}
		p := Packet{Cmd: Command(cmd), Target: target, Payload: payload}
		got, err := Unmarshal(p.AppendMarshal(nil))
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			return got.Payload == nil && got.Cmd == p.Cmd && got.Target == target
		}
		return got.Cmd == p.Cmd && got.Target == target && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalValidation(t *testing.T) {
	p := Packet{Cmd: CmdQuery, Target: Broadcast, Payload: []byte{4}}
	frame := p.AppendMarshal(nil)

	if _, err := Unmarshal(frame[:4]); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short frame: %v", err)
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 0x00
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadPreamble) {
		t.Errorf("bad preamble: %v", err)
	}
	crc := append([]byte(nil), frame...)
	crc[len(crc)-1] ^= 0xFF
	if _, err := Unmarshal(crc); !errors.Is(err, ErrBadCRC) {
		t.Errorf("bad crc: %v", err)
	}
}

func TestUnmarshalLengthMismatch(t *testing.T) {
	// Craft a frame whose length byte disagrees but CRC is valid over the
	// whole thing (re-CRC after corrupting the length field).
	p := Packet{Cmd: CmdQuery, Target: Broadcast, Payload: []byte{4, 5}}
	frame := p.AppendMarshal(nil)
	body := frame[:len(frame)-2]
	body[5] = 9 // wrong length
	bad := appendCRC(append([]byte(nil), body...), 0)
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadLength) {
		t.Errorf("length mismatch: %v", err)
	}
}

func TestPayloadTruncation(t *testing.T) {
	p := Packet{Cmd: CmdQuery, Target: 1, Payload: make([]byte, 300)}
	got, err := Unmarshal(p.AppendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 255 {
		t.Errorf("payload must truncate to 255, got %d", len(got.Payload))
	}
}

func TestCommandString(t *testing.T) {
	for _, c := range []Command{CmdQuery, CmdQueryRep, CmdAck, CmdSetBLF, CmdReadSensor, CmdSleep} {
		if c.String() == "" || c.String()[0] == 'C' && c.String() != "Command" && false {
			t.Error("unreachable")
		}
		if got := c.String(); len(got) == 0 {
			t.Errorf("empty name for %d", c)
		}
	}
	if Command(0x99).String() != "Command(0x99)" {
		t.Errorf("unknown command format: %s", Command(0x99).String())
	}
}

func TestBitsRoundTrip(t *testing.T) {
	p := Packet{Cmd: CmdAck, Target: 0xBEEF}
	bits := p.Bits()
	if len(bits) != len(p.AppendMarshal(nil))*8 {
		t.Errorf("bit length %d, want %d", len(bits), len(p.AppendMarshal(nil))*8)
	}
	for _, b := range bits {
		if b > 1 {
			t.Fatal("bits must be 0/1")
		}
	}
}

func TestUplinkRoundTrip(t *testing.T) {
	u := UplinkFrame{Handle: 0x0042, Kind: 0x02, Data: []byte{1, 2, 3, 4}}
	got, err := UnmarshalUplink(u.AppendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Handle != u.Handle || got.Kind != u.Kind || !bytes.Equal(got.Data, u.Data) {
		t.Errorf("uplink round trip mismatch: %+v", got)
	}
}

func TestUplinkValidation(t *testing.T) {
	if _, err := UnmarshalUplink([]byte{1, 2}); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short uplink: %v", err)
	}
	u := UplinkFrame{Handle: 7, Kind: 1, Data: []byte{9}}
	frame := u.AppendMarshal(nil)
	frame[0] ^= 0x80
	if _, err := UnmarshalUplink(frame); !errors.Is(err, ErrBadCRC) {
		t.Errorf("corrupted uplink: %v", err)
	}
}

func TestUplinkRoundTripProperty(t *testing.T) {
	f := func(handle uint16, kind byte, data []byte) bool {
		u := UplinkFrame{Handle: handle, Kind: kind, Data: data}
		got, err := UnmarshalUplink(u.AppendMarshal(nil))
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return got.Data == nil && got.Handle == handle && got.Kind == kind
		}
		return got.Handle == handle && got.Kind == kind && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSlotterRoundBehaviour(t *testing.T) {
	s := NewSlotter(1)
	slot := s.BeginRound(4)
	if slot < 0 || slot >= 16 {
		t.Fatalf("slot %d out of range", slot)
	}
	// Advancing slot times reaches zero → reply.
	for i := 0; i < slot; i++ {
		if s.ShouldReply() {
			t.Fatalf("premature reply at countdown %d", i)
		}
		s.Advance()
	}
	if !s.ShouldReply() {
		t.Error("node must reply when its counter hits zero")
	}
	s.EndRound()
	if s.ShouldReply() {
		t.Error("after EndRound the node must stay silent")
	}
}

func TestSlotterQClamping(t *testing.T) {
	s := NewSlotter(2)
	if slot := s.BeginRound(-3); slot != 0 {
		t.Errorf("Q<0 must clamp to a single slot, got %d", slot)
	}
	if slot := s.BeginRound(99); slot >= 1<<15 {
		t.Errorf("Q must clamp to 15, got slot %d", slot)
	}
}

func TestSlotterUniformity(t *testing.T) {
	s := NewSlotter(3)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[s.BeginRound(3)]++
	}
	for slot, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("slot %d drawn %d times of 8000; distribution skewed", slot, c)
		}
	}
}

func TestAdaptQ(t *testing.T) {
	// Collisions dominate → grow.
	if q := AdaptQ(4, RoundOutcome{Singles: 1, Collisions: 10, Empties: 2}); q != 5 {
		t.Errorf("collision-heavy round: q=%d, want 5", q)
	}
	// Empties dominate → shrink.
	if q := AdaptQ(4, RoundOutcome{Singles: 1, Collisions: 0, Empties: 14}); q != 3 {
		t.Errorf("empty-heavy round: q=%d, want 3", q)
	}
	// Balanced → hold.
	if q := AdaptQ(4, RoundOutcome{Singles: 8, Collisions: 4, Empties: 4}); q != 4 {
		t.Errorf("balanced round: q=%d, want 4", q)
	}
	// Clamping.
	if q := AdaptQ(15, RoundOutcome{Collisions: 100}); q != 15 {
		t.Errorf("q must clamp at 15, got %d", q)
	}
	if q := AdaptQ(0, RoundOutcome{Empties: 100}); q != 0 {
		t.Errorf("q must clamp at 0, got %d", q)
	}
}

func TestExpectedEfficiency(t *testing.T) {
	// One node, one slot: certainty.
	if e := ExpectedEfficiency(1, 0); e != 1 {
		t.Errorf("n=1 q=0: %g, want 1", e)
	}
	// Efficiency peaks when slots ≈ nodes.
	matched := ExpectedEfficiency(16, 4)
	tooFew := ExpectedEfficiency(16, 1)
	tooMany := ExpectedEfficiency(16, 10)
	if !(matched > tooFew && matched > tooMany) {
		t.Errorf("efficiency should peak near matched load: %g vs %g / %g",
			matched, tooFew, tooMany)
	}
	if ExpectedEfficiency(0, 4) != 0 || ExpectedEfficiency(5, -1) != 0 {
		t.Error("degenerate inputs must return 0")
	}
}
