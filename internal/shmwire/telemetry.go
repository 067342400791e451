package shmwire

import "ecocapsule/internal/telemetry"

// Metric handles, resolved once at init.
var (
	mFramesWritten = telemetry.NewCounterVec("ecocapsule_shmwire_frames_written_total",
		"wire frames written by type", "type")
	mFramesRead = telemetry.NewCounterVec("ecocapsule_shmwire_frames_read_total",
		"wire frames read and accepted by type", "type")
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
	mBroadcasts = telemetry.NewCounterVec("ecocapsule_shmwire_broadcasts_total",
		"frames fanned out by type (counted once per broadcast)", "type")
	mReconnects = telemetry.NewCounter("ecocapsule_shmwire_reconnects_total",
		"client reconnect attempts by the resilient subscriber")
	mTracedFrames = telemetry.NewCounter("ecocapsule_shmwire_traced_frames_total",
		"frames written with a trace-context header")
	mStatusTruncated = telemetry.NewCounter("ecocapsule_shmwire_status_truncated_total",
		"status frames whose missing-node list was cut at the wire cap")
)
