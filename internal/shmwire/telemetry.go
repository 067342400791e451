package shmwire

import "ecocapsule/internal/telemetry"

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
func (c *typeCounters) inc(t MsgType) {
	if int(t) < len(c.named) && c.named[t] != nil {
		c.named[t].Inc()
		return
	}
	c.vec.With(t.String()).Inc()
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
		"client reconnect attempts by the resilient subscriber")
	mTracedFrames = telemetry.NewCounter("ecocapsule_shmwire_traced_frames_total",
		"frames written with a trace-context header")
	mStatusTruncated = telemetry.NewCounter("ecocapsule_shmwire_status_truncated_total",
		"status frames whose missing-node list was cut at the wire cap")
)
