package shmwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"
)

// FuzzReadFrame throws arbitrary byte streams at one Conn, which receives
// frame after frame into the body buffer it reuses, and at every body
// decoder. Contract: errors, never panics; accepted frames honor the
// header invariants and survive a write→read round trip; and each frame
// the reused buffer yields equals what a fresh Conn parses from that
// frame's offset, so a stale tail or an aliased body fails.
func FuzzReadFrame(f *testing.F) {
	// Corpus: one well-formed frame of every message type, then all of
	// them back to back.
	var stream []byte
	seed := func(t MsgType, body []byte, tc *TraceContext) {
		var buf bytes.Buffer
		if err := sendFrame(&buf, t, body, tc); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		stream = append(stream, buf.Bytes()...)
	}
	ts := time.Unix(0, 1_700_000_000_000_000_000).UTC()
	seed(MsgHello, []byte("subscriber"), nil)
	seed(MsgStatus, EncodeStatus(Status{Timestamp: ts, Expected: 1100, Reporting: 76, Degraded: true,
		MissingNodes: make([]uint16, maxMissingNodes)}), nil)
	seed(MsgTelemetry, telemetryBytes(Telemetry{
		Timestamp: ts, CapsuleID: 0x81, Acceleration: 0.25, StressMPa: 1.5,
		TemperatureC: 21.5, Humidity: 60,
	}), nil)
	seed(MsgHealth, EncodeHealth(Health{Timestamp: ts, Section: 'C', Level: 'B', Pedestrians: 12, SpeedMS: 1.4}), nil)
	seed(MsgAlert, EncodeAlert(Alert{Timestamp: ts, Code: AlertAnomaly, Message: "spalling detected"}), nil)
	seed(MsgStatus, EncodeStatus(Status{Timestamp: ts, Expected: 12, Reporting: 11, Degraded: true, MissingNodes: []uint16{0x85}}), nil)
	// A traced status frame: traced-flag bit set, 20-byte context prefix.
	seed(MsgStatus, EncodeStatus(Status{Timestamp: ts, Expected: 3, Reporting: 3}),
		&TraceContext{TraceID: 0x0102030405060708, SpanID: 0x0A0B0C0D, LogicalTS: 42})
	seed(MsgBye, nil, nil)
	f.Add(stream)
	// A traced frame too short to hold its context header.
	f.Add([]byte{0xEC, 0x05, Version, byte(MsgBye) | flagTraced, 0, 4, 1, 2, 3, 4})
	// Malformed headers: bad magic, bad version, oversized length.
	f.Add([]byte{0xFF, 0xFF, 1, 1, 0, 0})
	f.Add([]byte{0xEC, 0x05, 99, 1, 0, 0})
	f.Add([]byte{0xEC, 0x05, 1, 2, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		for off := 0; ; {
			fr, err := c.Recv()
			if err != nil {
				return
			}
			alone, err := recvFrame(bytes.NewReader(data[off:]))
			if err != nil {
				t.Fatalf("frame at offset %d: accepted on the reused buffer, rejected alone: %v", off, err)
			}
			if !sameFrame(fr, alone) {
				t.Fatalf("frame at offset %d: reused buffer read %+v, alone %+v", off, fr, alone)
			}
			off += frameHeaderSize + int(binary.BigEndian.Uint16(data[off+4:off+6]))
			checkAcceptedFrame(t, fr)
		}
	})
}

// sameFrame reports whether a and b carry the same type, body and trace.
func sameFrame(a, b Frame) bool {
	if a.Type != b.Type || !bytes.Equal(a.Body, b.Body) || (a.Trace == nil) != (b.Trace == nil) {
		return false
	}
	return a.Trace == nil || *a.Trace == *b.Trace
}

// checkAcceptedFrame holds an accepted frame to the header invariants,
// runs every body decoder over it, and round-trips it through the writer.
func checkAcceptedFrame(t *testing.T, fr Frame) {
	t.Helper()
	if len(fr.Body) > MaxFrameSize {
		t.Fatalf("accepted %d-byte body beyond MaxFrameSize", len(fr.Body))
	}
	// Whatever the type byte says, every decoder must survive the body.
	if _, err := DecodeTelemetry(fr.Body); err != nil && err != ErrShortBody {
		t.Fatalf("telemetry decode: %v", err)
	}
	if _, err := DecodeHealth(fr.Body); err != nil && err != ErrShortBody {
		t.Fatalf("health decode: %v", err)
	}
	if _, err := DecodeAlert(fr.Body); err != nil && err != ErrShortBody {
		t.Fatalf("alert decode: %v", err)
	}
	if _, err := DecodeStatus(fr.Body); err != nil && err != ErrShortBody {
		t.Fatalf("status decode: %v", err)
	}
	// An accepted frame must survive a write→read round trip unchanged,
	// trace context included.
	var buf bytes.Buffer
	if err := sendFrame(&buf, fr.Type, fr.Body, fr.Trace); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	fr2, err := recvFrame(&buf)
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if !sameFrame(fr, fr2) {
		t.Fatal("frame round trip mismatch")
	}
}
