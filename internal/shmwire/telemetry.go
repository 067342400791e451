package shmwire

import (
	"sync/atomic"

	"ecocapsule/internal/telemetry"
)

// typeCounters is a by-type CounterVec with the children of the named
// MsgTypes resolved once, so the per-frame path skips CounterVec.With's
// registry lookup. Any other type a peer sends falls back to With.
type typeCounters struct {
	vec   *telemetry.CounterVec
	named [MsgStatus + 1]*telemetry.Counter
}

func newTypeCounters(vec *telemetry.CounterVec) *typeCounters {
	c := &typeCounters{vec: vec}
	for t := MsgHello; t <= MsgStatus; t++ {
		c.named[t] = vec.With(t.String())
	}
	return c
}

// inc counts one frame of type t.
//
//ecolint:hotpath a named type is one atomic add
func (c *typeCounters) inc(t MsgType) {
	if int(t) < len(c.named) && c.named[t] != nil {
		c.named[t].Inc()
		return
	}
	//ecolint:ignore hotalloc only a type outside the protocol resolves its series here
	c.vec.With(t.String()).Inc()
}

// frameTally counts frames by type until they are published to its family,
// so a batch of frames costs one counter update per type, not per frame. A
// writer publishes before the buffer reaches the socket (flushFrames, and
// writeFrame's flush when a frame would not fit), so a peer that has
// received a frame always finds it counted; a Conn's read tally is
// published by Recv and Client.Close. Close may publish while Recv runs on
// another goroutine, so the counts are atomic, but only one goroutine adds.
type frameTally struct {
	to *typeCounters
	n  [MsgStatus + 1]atomic.Uint64
}

// count tallies one frame of type t; a type outside the protocol is
// counted at once.
//
//ecolint:hotpath an uncontended atomic add
func (ft *frameTally) count(t MsgType) {
	if t >= MsgHello && t <= MsgStatus {
		ft.n[t].Add(1)
		return
	}
	ft.to.inc(t)
}

// publish adds the tallied frames to the tally's family and zeroes the
// tally.
func (ft *frameTally) publish() {
	for t := MsgHello; t <= MsgStatus; t++ {
		if ft.n[t].Load() > 0 {
			ft.to.named[t].Add(float64(ft.n[t].Swap(0)))
		}
	}
}

// Metric handles, resolved once at init.
var (
	mFramesWritten = newTypeCounters(telemetry.NewCounterVec("ecocapsule_shmwire_frames_written_total",
		"wire frames written by type", "type"))
	mFramesRead = newTypeCounters(telemetry.NewCounterVec("ecocapsule_shmwire_frames_read_total",
		"wire frames read and accepted by type", "type"))
	mReadErrors = telemetry.NewCounter("ecocapsule_shmwire_read_errors_total",
		"frame reads rejected (bad magic/version, oversize, short read)")
	mWriteDeadlineHits = telemetry.NewCounter("ecocapsule_shmwire_write_deadline_hits_total",
		"subscriber frame writes that hit the write deadline")
	mSubscribers = telemetry.NewGauge("ecocapsule_shmwire_subscribers",
		"currently connected subscribers")
	mEvictions = telemetry.NewCounter("ecocapsule_shmwire_evictions_total",
		"slow subscribers disconnected with a full fan-out buffer")
	mBroadcastRejected = telemetry.NewCounter("ecocapsule_shmwire_broadcast_rejected_total",
		"broadcast frames rejected before fan-out (oversize body or reserved type bit)")
	mBroadcasts = newTypeCounters(telemetry.NewCounterVec("ecocapsule_shmwire_broadcasts_total",
		"frames fanned out by type (counted once per broadcast)", "type"))
	mReconnects = telemetry.NewCounter("ecocapsule_shmwire_reconnects_total",
		"sessions the resilient subscriber dropped (bounces and broken streams), counted before any redial")
	mTracedFrames = telemetry.NewCounter("ecocapsule_shmwire_traced_frames_total",
		"frames written with a trace-context header")
	mStatusTruncated = telemetry.NewCounter("ecocapsule_shmwire_status_truncated_total",
		"status frames whose missing-node list was cut at the wire cap")
)
