// Package shmwire defines the binary TCP wire protocol the shmserver tool
// streams SHM telemetry over, plus the client and server implementations.
// The framing is deliberately simple and allocation-light: a fixed header
// (magic, version, message type, length) followed by a fixed-layout body,
// all big-endian — the kind of protocol a monitoring daemon would expose
// to a building-management system.
package shmwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"ecocapsule/internal/telemetry"
)

// Protocol constants.
const (
	// Magic marks every frame.
	Magic uint16 = 0xEC05
	// Version of the protocol.
	Version byte = 1
	// MaxFrameSize bounds a frame body (sanity limit).
	MaxFrameSize = 4096
)

// MsgType discriminates frame bodies.
type MsgType byte

// Frame types.
const (
	// MsgHello opens a session (client → server): carries the subscriber
	// name.
	MsgHello MsgType = 1
	// MsgTelemetry carries one telemetry sample (server → client).
	MsgTelemetry MsgType = 2
	// MsgHealth carries a per-section health report (server → client).
	MsgHealth MsgType = 3
	// MsgAlert flags a threshold violation or detected anomaly.
	MsgAlert MsgType = 4
	// MsgBye closes the session gracefully.
	MsgBye MsgType = 5
	// MsgStatus carries the fleet coverage status (server → client): how
	// many capsules are expected vs reporting and which are missing, so a
	// building-management system can distinguish "quiet structure" from
	// "blind monitoring".
	MsgStatus MsgType = 6
)

func (m MsgType) String() string {
	switch m {
	case MsgHello:
		return "hello"
	case MsgTelemetry:
		return "telemetry"
	case MsgHealth:
		return "health"
	case MsgAlert:
		return "alert"
	case MsgBye:
		return "bye"
	case MsgStatus:
		return "status"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(m))
	}
}

// Telemetry is one fused sample from the bridge.
type Telemetry struct {
	Timestamp    time.Time
	CapsuleID    uint16
	Acceleration float64 // m/s²
	StressMPa    float64
	TemperatureC float64
	Humidity     float64 // percent
}

// Health is one per-section health row.
type Health struct {
	Timestamp   time.Time
	Section     byte // 'A'..'E'
	Level       byte // 'A'..'F'
	Pedestrians uint16
	SpeedMS     float64
}

// Alert flags a violation.
type Alert struct {
	Timestamp time.Time
	Code      uint16
	Message   string
}

// Alert codes.
const (
	AlertThreshold uint16 = 1
	AlertAnomaly   uint16 = 2
)

// Status is the fleet coverage annotation. Degraded surveys still stream —
// the report carries the holes instead of suppressing the data.
type Status struct {
	Timestamp time.Time
	// Expected / Reporting count the deployed capsules and those answering.
	Expected  uint16
	Reporting uint16
	// Degraded mirrors the fleet's coverage flag.
	Degraded bool
	// Truncated is set when MissingNodes was cut at the maxMissingNodes
	// wire cap, so a receiver knows the list names only a prefix of the
	// holes (Expected - Reporting still carries the true magnitude).
	Truncated bool
	// MissingNodes lists capsule handles that did not report (bounded by
	// maxMissingNodes on the wire).
	MissingNodes []uint16
}

// maxMissingNodes bounds the missing-handle list so a Status body always
// fits MaxFrameSize.
const maxMissingNodes = 1024

// TraceContext is the optional trace header a frame can carry across the
// socket: enough for the receiver to stitch its own spans under the
// sender's trace (telemetry.Tracer.StartRemote) and to measure delivery
// latency against the sender's logical clock. LogicalTS is a logical send
// timestamp in nanoseconds drawn from the deterministic sim clock — never
// a wall-clock reading, so traces and latency reports stay reproducible.
type TraceContext struct {
	TraceID   uint64
	SpanID    uint32
	LogicalTS uint64
}

// traceContextSize is the wire size of an encoded TraceContext.
const traceContextSize = 8 + 4 + 8

// flagTraced marks the frame-type byte of a frame whose body is prefixed
// with an encoded TraceContext. Message type values therefore live in the
// low 7 bits; untraced frames from old writers parse unchanged.
const flagTraced byte = 0x80

// EncodeTraceContext appends the 20-byte wire form of tc to dst.
func EncodeTraceContext(dst []byte, tc TraceContext) []byte {
	var b [traceContextSize]byte
	binary.BigEndian.PutUint64(b[0:8], tc.TraceID)
	binary.BigEndian.PutUint32(b[8:12], tc.SpanID)
	binary.BigEndian.PutUint64(b[12:20], tc.LogicalTS)
	return append(dst, b[:]...)
}

// DecodeTraceContext reverses EncodeTraceContext.
func DecodeTraceContext(b []byte) (TraceContext, error) {
	if len(b) < traceContextSize {
		return TraceContext{}, ErrShortBody
	}
	return TraceContext{
		TraceID:   binary.BigEndian.Uint64(b[0:8]),
		SpanID:    binary.BigEndian.Uint32(b[8:12]),
		LogicalTS: binary.BigEndian.Uint64(b[12:20]),
	}, nil
}

// Frame is a decoded wire frame. Trace is non-nil when the sender attached
// a trace context.
type Frame struct {
	Type  MsgType
	Body  []byte
	Trace *TraceContext
}

// Errors.
var (
	ErrBadMagic     = errors.New("shmwire: bad magic")
	ErrBadVersion   = errors.New("shmwire: unsupported version")
	ErrTooLarge     = errors.New("shmwire: frame exceeds MaxFrameSize")
	ErrShortBody    = errors.New("shmwire: body too short")
	ErrReservedType = errors.New("shmwire: message type collides with the traced flag bit")
)

// frameLength returns the length field of a frame carrying body (and tc,
// when non-nil), or why such a frame cannot be written.
func frameLength(t MsgType, body []byte, tc *TraceContext) (int, error) {
	if byte(t)&flagTraced != 0 {
		return 0, ErrReservedType
	}
	n := len(body)
	if tc != nil {
		n += traceContextSize
	}
	if n > MaxFrameSize {
		return 0, ErrTooLarge
	}
	return n, nil
}

// WriteFrameTraced writes one frame — magic(2) version(1) type(1)
// length(2) body — prefixing the body with tc (when non-nil) and setting
// the traced flag bit on the type byte. The trace header counts against
// MaxFrameSize.
func WriteFrameTraced(w io.Writer, t MsgType, body []byte, tc *TraceContext) error {
	n, err := frameLength(t, body, tc)
	if err != nil {
		return err
	}
	typeByte := byte(t)
	if tc != nil {
		typeByte |= flagTraced
	}
	hdr := make([]byte, 6, 6+traceContextSize)
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = typeByte
	binary.BigEndian.PutUint16(hdr[4:6], uint16(n))
	if tc != nil {
		hdr = EncodeTraceContext(hdr, *tc)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	mFramesWritten.inc(t)
	if tc != nil {
		mTracedFrames.Inc()
	}
	return nil
}

// ReadFrame reads one frame from r, peeling the trace-context prefix off
// traced frames.
func ReadFrame(r io.Reader) (Frame, error) {
	hdr := make([]byte, 6)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		mReadErrors.Inc()
		return Frame{}, ErrBadMagic
	}
	if hdr[2] != Version {
		mReadErrors.Inc()
		return Frame{}, ErrBadVersion
	}
	traced := hdr[3]&flagTraced != 0
	n := int(binary.BigEndian.Uint16(hdr[4:6]))
	if n > MaxFrameSize {
		mReadErrors.Inc()
		return Frame{}, ErrTooLarge
	}
	if traced && n < traceContextSize {
		mReadErrors.Inc()
		return Frame{}, ErrShortBody
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		mReadErrors.Inc()
		return Frame{}, err
	}
	f := Frame{Type: MsgType(hdr[3] &^ flagTraced), Body: body}
	if traced {
		tc, err := DecodeTraceContext(body[:traceContextSize])
		if err != nil {
			mReadErrors.Inc()
			return Frame{}, err
		}
		f.Trace = &tc
		f.Body = body[traceContextSize:]
	}
	mFramesRead.inc(f.Type)
	return f, nil
}

func putF64(b []byte, v float64) { binary.BigEndian.PutUint64(b, math.Float64bits(v)) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.BigEndian.Uint64(b)) }

// EncodeTelemetry serialises a telemetry sample.
func EncodeTelemetry(t Telemetry) []byte {
	b := make([]byte, 8+2+8*4)
	binary.BigEndian.PutUint64(b[0:8], uint64(t.Timestamp.UnixNano()))
	binary.BigEndian.PutUint16(b[8:10], t.CapsuleID)
	putF64(b[10:18], t.Acceleration)
	putF64(b[18:26], t.StressMPa)
	putF64(b[26:34], t.TemperatureC)
	putF64(b[34:42], t.Humidity)
	return b
}

// DecodeTelemetry reverses EncodeTelemetry.
func DecodeTelemetry(b []byte) (Telemetry, error) {
	if len(b) < 42 {
		return Telemetry{}, ErrShortBody
	}
	return Telemetry{
		Timestamp:    time.Unix(0, int64(binary.BigEndian.Uint64(b[0:8]))).UTC(),
		CapsuleID:    binary.BigEndian.Uint16(b[8:10]),
		Acceleration: getF64(b[10:18]),
		StressMPa:    getF64(b[18:26]),
		TemperatureC: getF64(b[26:34]),
		Humidity:     getF64(b[34:42]),
	}, nil
}

// EncodeHealth serialises a health row.
func EncodeHealth(h Health) []byte {
	b := make([]byte, 8+1+1+2+8)
	binary.BigEndian.PutUint64(b[0:8], uint64(h.Timestamp.UnixNano()))
	b[8] = h.Section
	b[9] = h.Level
	binary.BigEndian.PutUint16(b[10:12], h.Pedestrians)
	putF64(b[12:20], h.SpeedMS)
	return b
}

// DecodeHealth reverses EncodeHealth.
func DecodeHealth(b []byte) (Health, error) {
	if len(b) < 20 {
		return Health{}, ErrShortBody
	}
	return Health{
		Timestamp:   time.Unix(0, int64(binary.BigEndian.Uint64(b[0:8]))).UTC(),
		Section:     b[8],
		Level:       b[9],
		Pedestrians: binary.BigEndian.Uint16(b[10:12]),
		SpeedMS:     getF64(b[12:20]),
	}, nil
}

// EncodeAlert serialises an alert.
func EncodeAlert(a Alert) []byte {
	msg := []byte(a.Message)
	if len(msg) > 512 {
		msg = msg[:512]
	}
	b := make([]byte, 8+2+2+len(msg))
	binary.BigEndian.PutUint64(b[0:8], uint64(a.Timestamp.UnixNano()))
	binary.BigEndian.PutUint16(b[8:10], a.Code)
	binary.BigEndian.PutUint16(b[10:12], uint16(len(msg)))
	copy(b[12:], msg)
	return b
}

// DecodeAlert reverses EncodeAlert.
func DecodeAlert(b []byte) (Alert, error) {
	if len(b) < 12 {
		return Alert{}, ErrShortBody
	}
	n := int(binary.BigEndian.Uint16(b[10:12]))
	if len(b) < 12+n {
		return Alert{}, ErrShortBody
	}
	return Alert{
		Timestamp: time.Unix(0, int64(binary.BigEndian.Uint64(b[0:8]))).UTC(),
		Code:      binary.BigEndian.Uint16(b[8:10]),
		Message:   string(b[12 : 12+n]),
	}, nil
}

// EncodeStatus serialises a coverage status. Missing handles beyond
// maxMissingNodes are truncated, but never silently: the frame's Truncated
// flag is set and ecocapsule_shmwire_status_truncated_total counts the cut
// (the Expected/Reporting counts still carry the true magnitude).
func EncodeStatus(s Status) []byte {
	missing := s.MissingNodes
	truncated := s.Truncated
	if len(missing) > maxMissingNodes {
		dropped := len(missing) - maxMissingNodes
		missing = missing[:maxMissingNodes]
		truncated = true
		mStatusTruncated.Inc()
		telemetry.RecordFlight("shmwire", "status_truncated",
			fmt.Sprintf("missing-node list cut at %d (%d dropped)", maxMissingNodes, dropped))
	}
	b := make([]byte, 8+2+2+1+2+2*len(missing))
	binary.BigEndian.PutUint64(b[0:8], uint64(s.Timestamp.UnixNano()))
	binary.BigEndian.PutUint16(b[8:10], s.Expected)
	binary.BigEndian.PutUint16(b[10:12], s.Reporting)
	if s.Degraded {
		b[12] |= 1
	}
	if truncated {
		b[12] |= 2
	}
	binary.BigEndian.PutUint16(b[13:15], uint16(len(missing)))
	for i, h := range missing {
		binary.BigEndian.PutUint16(b[15+2*i:17+2*i], h)
	}
	return b
}

// DecodeStatus reverses EncodeStatus.
func DecodeStatus(b []byte) (Status, error) {
	if len(b) < 15 {
		return Status{}, ErrShortBody
	}
	n := int(binary.BigEndian.Uint16(b[13:15]))
	if n > maxMissingNodes || len(b) < 15+2*n {
		return Status{}, ErrShortBody
	}
	s := Status{
		Timestamp: time.Unix(0, int64(binary.BigEndian.Uint64(b[0:8]))).UTC(),
		Expected:  binary.BigEndian.Uint16(b[8:10]),
		Reporting: binary.BigEndian.Uint16(b[10:12]),
		Degraded:  b[12]&1 != 0,
		Truncated: b[12]&2 != 0,
	}
	for i := 0; i < n; i++ {
		s.MissingNodes = append(s.MissingNodes, binary.BigEndian.Uint16(b[15+2*i:17+2*i]))
	}
	return s, nil
}

// Conn wraps a net.Conn (or any ReadWriter) with buffered framing.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
}

// NewConn wraps rw.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// Send writes one frame and flushes.
func (c *Conn) Send(t MsgType, body []byte) error {
	return c.SendTraced(t, body, nil)
}

// SendTraced writes one frame carrying an optional trace context and
// flushes.
func (c *Conn) SendTraced(t MsgType, body []byte, tc *TraceContext) error {
	if err := WriteFrameTraced(c.w, t, body, tc); err != nil {
		return err
	}
	return c.w.Flush()
}

// Recv reads one frame.
func (c *Conn) Recv() (Frame, error) { return ReadFrame(c.r) }

// Hello sends the session-open frame with the subscriber name.
func (c *Conn) Hello(name string) error {
	return c.Send(MsgHello, []byte(name))
}
