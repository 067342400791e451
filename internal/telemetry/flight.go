package telemetry

import (
	"fmt"
	"sort"
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
	// next counts every event ever recorded; the ring keeps the last
	// len(buf) of them.
	next uint64
	buf  []FlightEvent
}

// FlightRecorder is a black box: a bounded ring of recent structured events
// per subsystem (frames sent or dropped, faults injected, reroutes,
// backoffs, CRC failures). It is cheap enough to leave on permanently and
// is dumped automatically when something degrades — a survey losing
// coverage, a subscriber being evicted — so the events leading up to the
// incident survive it.
type FlightRecorder struct {
	mu sync.Mutex
	//ecolint:guardedby mu
	rings map[string]*flightRing
	//ecolint:guardedby mu
	capacity int
	//ecolint:guardedby mu
	dumps uint64
	//ecolint:guardedby mu
	lastDumpReason string
	//ecolint:guardedby mu
	lastDump string
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
	return &FlightRecorder{rings: make(map[string]*flightRing), capacity: capacity}
}

// Record appends one event to the subsystem's ring, evicting the oldest
// retained event once the ring is full.
func (f *FlightRecorder) Record(subsystem, kind, detail string) {
	f.mu.Lock()
	r := f.rings[subsystem]
	if r == nil {
		r = &flightRing{}
		f.rings[subsystem] = r
	}
	r.next++
	ev := FlightEvent{Seq: r.next, Subsystem: subsystem, Kind: kind, Detail: detail}
	if len(r.buf) < f.capacity {
		r.buf = append(r.buf, ev)
	} else {
		copy(r.buf, r.buf[1:])
		r.buf[len(r.buf)-1] = ev
	}
	f.mu.Unlock()
	mFlightEvents.With(subsystem).Inc()
}

// Events returns every retained event, ordered by subsystem then sequence
// number — a deterministic flattening of the rings.
func (f *FlightRecorder) Events() []FlightEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eventsLocked()
}

func (f *FlightRecorder) eventsLocked() []FlightEvent {
	subs := make([]string, 0, len(f.rings))
	for s := range f.rings {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	var out []FlightEvent
	for _, s := range subs {
		out = append(out, f.rings[s].buf...)
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
	return f.renderLocked()
}

func (f *FlightRecorder) renderLocked() string {
	subs := make([]string, 0, len(f.rings))
	for s := range f.rings {
		subs = append(subs, s)
	}
	sort.Strings(subs)
	var b strings.Builder
	if len(subs) == 0 {
		b.WriteString("flight recorder: no events\n")
		return b.String()
	}
	for _, s := range subs {
		r := f.rings[s]
		overwritten := r.next - uint64(len(r.buf))
		fmt.Fprintf(&b, "subsystem %s (%d recorded, %d overwritten):\n", s, r.next, overwritten)
		for _, ev := range r.buf {
			fmt.Fprintf(&b, "  #%d %s", ev.Seq, ev.Kind)
			if ev.Detail != "" {
				fmt.Fprintf(&b, " %s", ev.Detail)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Dump snapshots the rendered history under the given reason and remembers
// it as the last dump (LastDump; the dashboard's /api/flightrecorder reports
// its reason and count). It returns the rendered snapshot.
func (f *FlightRecorder) Dump(reason string) string {
	f.mu.Lock()
	rendered := f.renderLocked()
	f.dumps++
	f.lastDumpReason = reason
	f.lastDump = rendered
	f.mu.Unlock()
	mFlightDumps.Inc()
	return rendered
}

// LastDump reports the most recent dump: its reason, the rendered snapshot
// and how many dumps have happened in total.
func (f *FlightRecorder) LastDump() (reason, rendered string, dumps uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastDumpReason, f.lastDump, f.dumps
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
