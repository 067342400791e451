package shmwire

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReadFrame throws arbitrary byte streams at the frame parser and every
// body decoder. Contract: errors, never panics, and accepted frames honor
// the header invariants.
func FuzzReadFrame(f *testing.F) {
	// Corpus: one well-formed frame of every message type.
	seed := func(t MsgType, body []byte) {
		var buf bytes.Buffer
		if err := WriteFrameTraced(&buf, t, body, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	ts := time.Unix(0, 1_700_000_000_000_000_000).UTC()
	seed(MsgHello, []byte("subscriber"))
	seed(MsgTelemetry, EncodeTelemetry(Telemetry{
		Timestamp: ts, CapsuleID: 0x81, Acceleration: 0.25, StressMPa: 1.5,
		TemperatureC: 21.5, Humidity: 60,
	}))
	seed(MsgHealth, EncodeHealth(Health{Timestamp: ts, Section: 'C', Level: 'B', Pedestrians: 12, SpeedMS: 1.4}))
	seed(MsgAlert, EncodeAlert(Alert{Timestamp: ts, Code: AlertAnomaly, Message: "spalling detected"}))
	seed(MsgStatus, EncodeStatus(Status{Timestamp: ts, Expected: 12, Reporting: 11, Degraded: true, MissingNodes: []uint16{0x85}}))
	seed(MsgBye, nil)
	// A traced status frame: traced-flag bit set, 20-byte context prefix.
	var traced bytes.Buffer
	if err := WriteFrameTraced(&traced, MsgStatus,
		EncodeStatus(Status{Timestamp: ts, Expected: 3, Reporting: 3}),
		&TraceContext{TraceID: 0x0102030405060708, SpanID: 0x0A0B0C0D, LogicalTS: 42}); err != nil {
		f.Fatal(err)
	}
	f.Add(traced.Bytes())
	// A traced frame too short to hold its context header.
	f.Add([]byte{0xEC, 0x05, Version, byte(MsgBye) | flagTraced, 0, 4, 1, 2, 3, 4})
	// Malformed headers: bad magic, bad version, oversized length.
	f.Add([]byte{0xFF, 0xFF, 1, 1, 0, 0})
	f.Add([]byte{0xEC, 0x05, 99, 1, 0, 0})
	f.Add([]byte{0xEC, 0x05, 1, 2, 0xFF, 0xFF})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
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
		if err := WriteFrameTraced(&buf, fr.Type, fr.Body, fr.Trace); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		fr2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if fr2.Type != fr.Type || !bytes.Equal(fr2.Body, fr.Body) {
			t.Fatal("frame round trip mismatch")
		}
		if (fr2.Trace == nil) != (fr.Trace == nil) || (fr.Trace != nil && *fr2.Trace != *fr.Trace) {
			t.Fatal("trace context round trip mismatch")
		}
	})
}
