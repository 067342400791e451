package telemetry

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// FlightEvent is one structured black-box record. Events deliberately carry
// a per-subsystem sequence number instead of a timestamp: the recorder is
// used from the deterministic simulation packages, where wall-clock values
// would make dumps unreproducible.
type FlightEvent struct {
	// Seq numbers events per subsystem, starting at 1 and never resetting
	// while the recorder lives, so overwritten history is visible as a gap
	// before the first retained event.
	Seq       uint64 `json:"seq"`
	Subsystem string `json:"subsystem"`
	Kind      string `json:"kind"`
	Detail    string `json:"detail"`
}

// flightRing is one subsystem's bounded history.
type flightRing struct {
	subsystem string
	// next counts every event ever recorded; the ring keeps the last
	// len(buf) of them, oldest at buf[head].
	next uint64
	head int
	buf  []FlightEvent
}

// add records ev, overwriting the oldest retained event once the ring
// holds capacity of them.
func (r *flightRing) add(ev FlightEvent, capacity int) {
	if len(r.buf) < capacity {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.head] = ev
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

// appendEvents appends the retained events to dst, oldest first.
func (r *flightRing) appendEvents(dst []FlightEvent) []FlightEvent {
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head]...)
}

// FlightRecorder is a black box: a bounded ring of recent structured events
// per subsystem (frames sent or dropped, faults injected, reroutes,
// backoffs, CRC failures). It is cheap enough to leave on permanently and
// is dumped automatically when something degrades — a survey losing
// coverage, a subscriber being evicted — so the events leading up to the
// incident survive it.
type FlightRecorder struct {
	mu sync.Mutex
	// rings holds one ring per subsystem, sorted by subsystem name.
	//ecolint:guardedby mu
	rings []flightRing
	//ecolint:guardedby mu
	capacity int
	//ecolint:guardedby mu
	dumps uint64
	//ecolint:guardedby mu
	lastDumpReason string
	// lastDump is the copy of the rings the last Dump took, each with its
	// events oldest first; its buffers are reused by the next Dump, and
	// LastDump renders it.
	//ecolint:guardedby mu
	lastDump []flightRing
}

// DefaultFlightCapacity is the per-subsystem ring size used when
// NewFlightRecorder is given a non-positive capacity.
const DefaultFlightCapacity = 64

// NewFlightRecorder builds a recorder keeping the last capacity events per
// subsystem (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{capacity: capacity}
}

// Record appends one event to the subsystem's ring, evicting the oldest
// retained event once the ring is full.
func (f *FlightRecorder) Record(subsystem, kind, detail string) {
	f.mu.Lock()
	i, ok := slices.BinarySearchFunc(f.rings, subsystem, func(r flightRing, s string) int {
		return strings.Compare(r.subsystem, s)
	})
	if !ok {
		f.rings = slices.Insert(f.rings, i, flightRing{subsystem: subsystem})
	}
	r := &f.rings[i]
	r.next++
	r.add(FlightEvent{Seq: r.next, Subsystem: subsystem, Kind: kind, Detail: detail}, f.capacity)
	f.mu.Unlock()
	mFlightEvents.With(subsystem).Inc()
}

// Events returns every retained event, ordered by subsystem then sequence
// number — a deterministic flattening of the rings.
func (f *FlightRecorder) Events() []FlightEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []FlightEvent
	for i := range f.rings {
		out = f.rings[i].appendEvents(out)
	}
	return out
}

// Render formats the retained history as a deterministic text block:
//
//	subsystem fleet (7 recorded, 2 overwritten):
//	  #3 reroute station 2 -> station 1
//
// Subsystems sort alphabetically; events keep recording order.
func (f *FlightRecorder) Render() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return renderFlight(f.rings)
}

// renderFlight formats rings as Render's text.
func renderFlight(rings []flightRing) string {
	var b strings.Builder
	if len(rings) == 0 {
		b.WriteString("flight recorder: no events\n")
	}
	for i := range rings {
		r := &rings[i]
		overwritten := r.next - uint64(len(r.buf))
		fmt.Fprintf(&b, "subsystem %s (%d recorded, %d overwritten):\n", r.subsystem, r.next, overwritten)
		for _, ev := range r.appendEvents(nil) {
			fmt.Fprintf(&b, "  #%d %s", ev.Seq, ev.Kind)
			if ev.Detail != "" {
				fmt.Fprintf(&b, " %s", ev.Detail)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Dump snapshots the retained history under the given reason as the last
// dump (LastDump; the dashboard's /api/flightrecorder reports its reason
// and count). The snapshot is a copy of the rings into buffers the
// previous dump left, so a dump renders nothing and, once those buffers
// have grown to the rings' size, allocates nothing.
func (f *FlightRecorder) Dump(reason string) {
	f.mu.Lock()
	// Rings are never removed, so the last snapshot is never longer.
	if n := len(f.rings) - len(f.lastDump); n > 0 {
		f.lastDump = append(f.lastDump, make([]flightRing, n)...)
	}
	for i := range f.rings {
		r, c := &f.rings[i], &f.lastDump[i]
		c.subsystem, c.next, c.head = r.subsystem, r.next, 0
		c.buf = r.appendEvents(c.buf[:0])
	}
	f.dumps++
	f.lastDumpReason = reason
	f.mu.Unlock()
	mFlightDumps.Inc()
}

// LastDump reports the most recent dump: its reason, its snapshot rendered
// as Render rendered the history at the moment of the dump ("" before the
// first dump) and how many dumps have happened in total.
func (f *FlightRecorder) LastDump() (reason, rendered string, dumps uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dumps == 0 {
		return "", "", 0
	}
	return f.lastDumpReason, renderFlight(f.lastDump), f.dumps
}

// defaultFlight is the process-wide recorder the instrumented packages
// write to, mirroring the defaultRegistry pattern for metrics.
var defaultFlight = NewFlightRecorder(0)

// Flight returns the process-wide flight recorder.
func Flight() *FlightRecorder { return defaultFlight }

// RecordFlight records one event on the process-wide recorder.
func RecordFlight(subsystem, kind, detail string) {
	defaultFlight.Record(subsystem, kind, detail)
}

// Flight-recorder metric handles.
var (
	mFlightEvents = NewCounterVec("ecocapsule_telemetry_flight_events_total",
		"flight-recorder events recorded by subsystem", "subsystem")
	mFlightDumps = NewCounter("ecocapsule_telemetry_flight_dumps_total",
		"flight-recorder incident dumps")
)
