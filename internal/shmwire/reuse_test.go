package shmwire

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// TestRecvReusedBufferDecodesEveryFrame sends a Status with a full
// missing list, a Telemetry, a traced Status with none missing and another
// Telemetry down one Conn, which receives them all into the body buffer it
// reuses. Every frame must arrive with exactly its own body and trace, every
// event must decode exactly, and a Status must still hold its own missing
// list after the frames behind it reused the buffer: a stale tail of a
// longer frame, a trace left over from a traced one, or a decoded field
// aliasing the buffer all fail here.
func TestRecvReusedBufferDecodesEveryFrame(t *testing.T) {
	ts := time.Unix(0, 1_700_000_000_000_000_000).UTC()
	missing := make([]uint16, maxMissingNodes)
	for i := range missing {
		missing[i] = uint16(0x0100 + 3*i)
	}
	full := Status{Timestamp: ts, Expected: 2000, Reporting: 976, Degraded: true, MissingNodes: missing}
	clean := Status{Timestamp: ts.Add(time.Hour), Expected: 2000, Reporting: 2000}
	tel1 := Telemetry{Timestamp: ts, CapsuleID: 0x0101, Acceleration: -0.5, StressMPa: -42.25, TemperatureC: 21.5, Humidity: 61}
	tel2 := Telemetry{Timestamp: ts.Add(time.Second), CapsuleID: 0x0202, TemperatureC: 19.75, Humidity: 58.5}
	tc := &TraceContext{TraceID: 0xA1B2C3D4E5F60708, SpanID: 0x0BADF00D, LogicalTS: 3_600_000_000_000}
	sent := []struct {
		t    MsgType
		body []byte
		tc   *TraceContext
	}{
		{MsgStatus, EncodeStatus(full), nil},
		{MsgTelemetry, telemetryBytes(tel1), nil},
		{MsgStatus, EncodeStatus(clean), tc},
		{MsgTelemetry, telemetryBytes(tel2), nil},
	}
	var stream bytes.Buffer
	for _, f := range sent {
		if err := sendFrame(&stream, f.t, f.body, f.tc); err != nil {
			t.Fatal(err)
		}
	}

	c := NewConn(&stream)
	for i, want := range sent {
		fr, err := c.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameFrame(fr, Frame{Type: want.t, Body: want.body, Trace: want.tc}) {
			t.Fatalf("frame %d: got type %v, %d-byte body, trace %v; want %v, %d bytes, trace %v",
				i, fr.Type, len(fr.Body), fr.Trace, want.t, len(want.body), want.tc)
		}
	}

	// The same stream through a Client: every event decodes exactly.
	for _, f := range sent {
		if err := sendFrame(&stream, f.t, f.body, f.tc); err != nil {
			t.Fatal(err)
		}
	}
	cl := &Client{c: NewConn(&stream)}
	var events []Event
	for i := range sent {
		ev, err := cl.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if (ev.Trace != nil) != (sent[i].tc != nil) || (ev.Trace != nil && *ev.Trace != *sent[i].tc) {
			t.Errorf("event %d: trace %v, want %v", i, ev.Trace, sent[i].tc)
		}
		switch i {
		case 1, 3:
			want := tel1
			if i == 3 {
				want = tel2
			}
			if ev.Telemetry == nil || *ev.Telemetry != want {
				t.Errorf("event %d: telemetry %+v, want %+v", i, ev.Telemetry, want)
			}
		}
		events = append(events, ev)
	}
	if got := events[0].Status; got == nil || !reflect.DeepEqual(*got, full) {
		t.Errorf("full-list status did not survive the frames behind it: %+v", got)
	}
	if got := events[2].Status; got == nil || !reflect.DeepEqual(*got, clean) {
		t.Errorf("traced clean status: %+v, want %+v", got, clean)
	}
}

// TestTelemetryFanOutZeroAlloc pins the steady-state telemetry path —
// BroadcastTelemetry, the subscriber's writer draining its queue onto the
// socket, and the Client's Next — at zero heap objects per frame.
func TestTelemetryFanOutZeroAlloc(t *testing.T) {
	s := startServer(t)
	cl, err := Dial(s.Addr().String(), "alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitSubscribers(t, s, 1)
	cl.SetDeadline(time.Now().Add(30 * time.Second))
	tel := Telemetry{Timestamp: time.Unix(1626000000, 0).UTC(), CapsuleID: 0x0042, TemperatureC: 24.5, Humidity: 70}
	frame := func() {
		s.BroadcastTelemetry(tel)
		ev, err := cl.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Telemetry == nil || *ev.Telemetry != tel {
			t.Fatalf("got %+v, want %+v", ev.Telemetry, tel)
		}
	}
	for i := 0; i < 200; i++ {
		frame() // warm the writer goroutine, its deadline timer and both buffers
	}
	if allocs := testing.AllocsPerRun(500, frame); allocs != 0 {
		t.Errorf("broadcast → drain → Next allocated %.1f objects per frame, want 0", allocs)
	}
}
