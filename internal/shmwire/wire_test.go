package shmwire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"testing/quick"
	"time"
)

// sendFrame writes one frame to w the way a Conn sends it.
func sendFrame(w io.Writer, t MsgType, body []byte, tc *TraceContext) error {
	return NewConn(struct {
		io.Reader
		io.Writer
	}{nil, w}).SendTraced(t, body, tc)
}

// telemetryBytes is t's wire body as a slice.
func telemetryBytes(t Telemetry) []byte {
	b := encodeTelemetry(t)
	return b[:]
}

// recvFrame reads one frame from r on a fresh Conn.
func recvFrame(r io.Reader) (Frame, error) {
	return NewConn(struct {
		io.Reader
		io.Writer
	}{r, io.Discard}).Recv()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte{1, 2, 3, 4, 5}
	if err := sendFrame(&buf, MsgTelemetry, body, nil); err != nil {
		t.Fatal(err)
	}
	f, err := recvFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgTelemetry || !bytes.Equal(f.Body, body) {
		t.Errorf("frame mismatch: %+v", f)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(tp byte, body []byte, traced bool, trace uint64, span uint32, ts uint64) bool {
		tp &^= flagTraced // the high bit is the traced flag, not a type
		if len(body) > MaxFrameSize-traceContextSize {
			body = body[:MaxFrameSize-traceContextSize]
		}
		var tc *TraceContext
		if traced {
			tc = &TraceContext{TraceID: trace, SpanID: span, LogicalTS: ts}
		}
		var buf bytes.Buffer
		if err := sendFrame(&buf, MsgType(tp), body, tc); err != nil {
			return false
		}
		got, err := recvFrame(&buf)
		if err != nil {
			return false
		}
		if got.Type != MsgType(tp) || !bytes.Equal(got.Body, body) {
			return false
		}
		if traced {
			return got.Trace != nil && *got.Trace == *tc
		}
		return got.Trace == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteFrameRejectsReservedTypeBit(t *testing.T) {
	var buf bytes.Buffer
	if err := sendFrame(&buf, MsgType(0x85), nil, nil); !errors.Is(err, ErrReservedType) {
		t.Errorf("type with traced bit set: %v, want ErrReservedType", err)
	}
}

func TestTracedFrameValidation(t *testing.T) {
	// A traced frame whose declared length cannot hold the trace header is
	// rejected before the body decoder sees it.
	short := []byte{0xEC, 0x05, Version, byte(MsgStatus) | flagTraced, 0, 5, 1, 2, 3, 4, 5}
	if _, err := recvFrame(bytes.NewReader(short)); !errors.Is(err, ErrShortBody) {
		t.Errorf("traced frame shorter than the header: %v, want ErrShortBody", err)
	}
	// The trace header counts against MaxFrameSize.
	var buf bytes.Buffer
	tc := &TraceContext{TraceID: 1, SpanID: 2, LogicalTS: 3}
	if err := sendFrame(&buf, MsgStatus, make([]byte, MaxFrameSize-traceContextSize+1), tc); !errors.Is(err, ErrTooLarge) {
		t.Errorf("traced frame over MaxFrameSize: %v, want ErrTooLarge", err)
	}
}

// TestTracedStatusEndToEnd pins that a trace context rides a status frame
// through Conn.SendTraced → Client-side ReadFrame untouched.
func TestTracedStatusEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	tc := TraceContext{TraceID: 0xDEADBEEF01020304, SpanID: 0xABCD1234, LogicalTS: 7_200_000_000_000}
	st := Status{Timestamp: time.Unix(0, 0).UTC(), Expected: 5, Reporting: 4, Degraded: true, MissingNodes: []uint16{0x91}}
	if err := sendFrame(&buf, MsgStatus, EncodeStatus(st), &tc); err != nil {
		t.Fatal(err)
	}
	fr, err := recvFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != MsgStatus || fr.Trace == nil || *fr.Trace != tc {
		t.Fatalf("frame %+v lost the trace context %+v", fr, tc)
	}
	dec, err := DecodeStatus(fr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Reporting != 4 || !dec.Degraded || len(dec.MissingNodes) != 1 {
		t.Errorf("status payload corrupted under the trace prefix: %+v", dec)
	}
}

func TestFrameValidation(t *testing.T) {
	// Oversized body rejected at write time.
	var buf bytes.Buffer
	if err := sendFrame(&buf, MsgTelemetry, make([]byte, MaxFrameSize+1), nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized write: %v", err)
	}
	// Bad magic.
	bad := []byte{0x00, 0x00, Version, byte(MsgHello), 0, 0}
	if _, err := recvFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Bad version.
	bad2 := []byte{0xEC, 0x05, 99, byte(MsgHello), 0, 0}
	if _, err := recvFrame(bytes.NewReader(bad2)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	// Truncated stream.
	if _, err := recvFrame(bytes.NewReader([]byte{0xEC})); err == nil {
		t.Error("truncated header must error")
	}
	// Declared length longer than the stream.
	short := []byte{0xEC, 0x05, Version, byte(MsgHello), 0, 10, 1, 2}
	if _, err := recvFrame(bytes.NewReader(short)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: %v", err)
	}
}

func TestTelemetryRoundTrip(t *testing.T) {
	in := Telemetry{
		Timestamp:    time.Date(2021, 7, 18, 14, 0, 0, 123, time.UTC),
		CapsuleID:    0x42,
		Acceleration: -0.0314,
		StressMPa:    -72.5,
		TemperatureC: 29.125,
		Humidity:     91.5,
	}
	out, err := DecodeTelemetry(telemetryBytes(in))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Timestamp.Equal(in.Timestamp) || out.CapsuleID != in.CapsuleID {
		t.Errorf("header mismatch: %+v", out)
	}
	for _, pair := range [][2]float64{
		{out.Acceleration, in.Acceleration},
		{out.StressMPa, in.StressMPa},
		{out.TemperatureC, in.TemperatureC},
		{out.Humidity, in.Humidity},
	} {
		if pair[0] != pair[1] {
			t.Errorf("field %g != %g", pair[0], pair[1])
		}
	}
	if _, err := DecodeTelemetry([]byte{1, 2}); !errors.Is(err, ErrShortBody) {
		t.Error("short telemetry must error")
	}
}

func TestTelemetryRoundTripProperty(t *testing.T) {
	f := func(id uint16, a, s, tc, h float64) bool {
		if math.IsNaN(a) || math.IsNaN(s) || math.IsNaN(tc) || math.IsNaN(h) {
			return true // NaN compares unequal; skip
		}
		in := Telemetry{
			Timestamp: time.Unix(0, 1626600000000000000).UTC(), CapsuleID: id,
			Acceleration: a, StressMPa: s, TemperatureC: tc, Humidity: h,
		}
		out, err := DecodeTelemetry(telemetryBytes(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHealthRoundTrip(t *testing.T) {
	in := Health{
		Timestamp:   time.Date(2021, 7, 1, 8, 0, 0, 0, time.UTC),
		Section:     'C',
		Level:       'B',
		Pedestrians: 17,
		SpeedMS:     1.25,
	}
	out, err := DecodeHealth(EncodeHealth(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
	if _, err := DecodeHealth(nil); !errors.Is(err, ErrShortBody) {
		t.Error("short health must error")
	}
}

func TestAlertRoundTrip(t *testing.T) {
	in := Alert{
		Timestamp: time.Date(2021, 7, 18, 3, 0, 0, 0, time.UTC),
		Code:      AlertAnomaly,
		Message:   "acceleration anomaly: tropical cyclone window",
	}
	out, err := DecodeAlert(EncodeAlert(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip mismatch: %+v", out)
	}
	// Long messages truncate at 512 bytes.
	long := Alert{Timestamp: in.Timestamp, Code: 1, Message: string(make([]byte, 600))}
	dec, err := DecodeAlert(EncodeAlert(long))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Message) != 512 {
		t.Errorf("message length %d, want 512", len(dec.Message))
	}
	if _, err := DecodeAlert([]byte{1}); !errors.Is(err, ErrShortBody) {
		t.Error("short alert must error")
	}
	// Declared message length beyond the body.
	bad := EncodeAlert(in)
	bad[10], bad[11] = 0xFF, 0xFF
	if _, err := DecodeAlert(bad); !errors.Is(err, ErrShortBody) {
		t.Error("lying length must error")
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, m := range []MsgType{MsgHello, MsgTelemetry, MsgHealth, MsgAlert, MsgBye} {
		if m.String() == "" {
			t.Error("type must format")
		}
	}
	if MsgType(77).String() == "" {
		t.Error("unknown type must format")
	}
}

// TestFrameCountersByType pins the pre-resolved by-type frame counters: a
// named type and a type no constant names both land on the series With
// resolves for their label, one count per frame.
func TestFrameCountersByType(t *testing.T) {
	for _, typ := range []MsgType{MsgHealth, MsgType(9)} {
		written := mFramesWritten.vec.With(typ.String())
		read := mFramesRead.vec.With(typ.String())
		w0, r0 := written.Value(), read.Value()
		var buf bytes.Buffer
		if err := sendFrame(&buf, typ, []byte{1, 2, 3}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := recvFrame(&buf); err != nil {
			t.Fatal(err)
		}
		if dw, dr := written.Value()-w0, read.Value()-r0; dw != 1 || dr != 1 {
			t.Errorf("%v: written +%g, read +%g; want +1 each", typ, dw, dr)
		}
	}

	// A burst: n frames arrive in one write, so one buffer fill holds them
	// all. A reader counts them once it has drained the burst, and a
	// reader that closes after k of them counts k.
	const n, k = 8, 3
	var burst bytes.Buffer
	for i := 0; i < n; i++ {
		if err := sendFrame(&burst, MsgHealth, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	read := mFramesRead.named[MsgHealth]
	r0 := read.Value()
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(burst.Bytes()), io.Discard})
	for i := 0; i < n; i++ {
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		if i < n-1 && read.Value() != r0 {
			t.Fatalf("burst counted before it was drained, after %d of %d frames", i+1, n)
		}
	}
	if d := read.Value() - r0; d != n {
		t.Errorf("drained burst: read +%g, want +%d", d, n)
	}

	a, b := net.Pipe()
	defer b.Close()
	go func() { b.Write(burst.Bytes()) }()
	cl := &Client{conn: a, c: NewConn(a)}
	r0 = read.Value()
	for i := 0; i < k; i++ {
		if _, err := cl.c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if d := read.Value() - r0; d != k {
		t.Errorf("closed after %d of %d frames: read +%g, want +%d", k, n, d, k)
	}
}

// TestReadTallyConcurrentClose closes a Client while another goroutine
// reads from it: whichever side publishes, every frame Recv returned is
// counted exactly once.
func TestReadTallyConcurrentClose(t *testing.T) {
	var burst bytes.Buffer
	for i := 0; i < 64; i++ {
		if err := sendFrame(&burst, MsgHealth, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		for {
			if _, err := b.Write(burst.Bytes()); err != nil {
				return
			}
		}
	}()
	cl := &Client{conn: a, c: NewConn(a)}
	read := mFramesRead.named[MsgHealth]
	r0 := read.Value()
	if _, err := cl.c.Recv(); err != nil {
		t.Fatal(err)
	}
	got := make(chan int)
	go func() {
		n := 1
		for {
			if _, err := cl.c.Recv(); err != nil {
				got <- n
				return
			}
			n++
		}
	}()
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	n := <-got
	if d := read.Value() - r0; d != float64(n) {
		t.Errorf("Recv returned %d frames, read +%g", n, d)
	}
}
