package reader

import (
	"fmt"

	"ecocapsule/internal/node"
	"ecocapsule/internal/telemetry"
)

// Metric handles are resolved once at init so the interrogation hot path
// pays one atomic op per event, no registry lookups.
var (
	mInventories = telemetry.NewCounter("ecocapsule_reader_inventories_total",
		"inventory runs started")
	mRounds = telemetry.NewCounter("ecocapsule_reader_rounds_total",
		"adaptive-Q arbitration rounds executed")
	mSlots = telemetry.NewCounterVec("ecocapsule_reader_slots_total",
		"arbitration slots by outcome", "outcome")
	mRetries = telemetry.NewCounter("ecocapsule_reader_retries_total",
		"NAK re-solicitations and read re-sends")
	mCorrupted = telemetry.NewCounter("ecocapsule_reader_corrupted_replies_total",
		"uplink frames that arrived but failed CRC")
	mBackoffSeconds = telemetry.NewCounter("ecocapsule_reader_backoff_seconds_total",
		"simulated time spent in retry backoff")
	mReads = telemetry.NewCounterVec("ecocapsule_reader_reads_total",
		"addressed sensor reads by result", "result")
	mReadAttempts = telemetry.NewHistogram("ecocapsule_reader_read_attempts",
		"delivery attempts needed per successful sensor read",
		[]float64{1, 2, 3, 4, 6, 8})
	mChargeRatio = telemetry.NewGauge("ecocapsule_reader_charge_powered_ratio",
		"fraction of deployed capsules powered up after the last charge")
	mLinkGain = telemetry.NewGaugeVec("ecocapsule_reader_link_path_gain",
		"acoustic path gain of each deployed capsule link", "handle")
)

// Slot outcome label values.
const (
	slotEmpty     = "empty"
	slotSingle    = "single"
	slotCollision = "collision"
)

// Read result label values.
const (
	readOK  = "ok"
	readErr = "error"
)

// Constant-label children, resolved once so the read and arbitration hot
// paths skip CounterVec.With's registry lookup.
var (
	cSlotEmpty     = mSlots.With(slotEmpty)
	cSlotSingle    = mSlots.With(slotSingle)
	cSlotCollision = mSlots.With(slotCollision)
	cReadOK        = mReads.With(readOK)
	cReadErr       = mReads.With(readErr)
)

// handleLabel renders a capsule handle the way every metric labels it.
func handleLabel(h uint16) string { return fmt.Sprintf("0x%04x", h) }

// SetTracer installs (or with nil removes) a span tracer on the reader.
// Tracing is off by default and costs nothing when disabled; with a seeded
// tracer the span tree of an interrogation round is byte-reproducible.
func (r *Reader) SetTracer(tr *telemetry.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = tr
}

// startSpanLocked opens a top-level reader span, keyed by the capsule it
// addresses (a read's target, the lowest handle a charge or inventory
// drives) so the spans several stations open concurrently get
// scheduling-independent IDs and render in handle order. It is a child of
// parent when one is given — the fleet passes its survey span, so one
// trace covers charge → interrogation → broadcast — else a fresh root on
// the tracer. Returns nil when tracing is off. Callers hold r.mu.
//
//ecolint:hotpath nil without a tracer
func (r *Reader) startSpanLocked(parent *telemetry.Span, name string, handle uint16) *telemetry.Span {
	if r.tracer == nil {
		return nil
	}
	if parent != nil {
		//ecolint:ignore hotalloc only a traced reader opens spans
		return parent.ChildKeyed(name, uint64(handle))
	}
	//ecolint:ignore hotalloc only a traced reader opens spans
	return r.tracer.StartKeyed(name, uint64(handle))
}

// lowestHandle returns the smallest handle among nodes (0 if none).
func lowestHandle(nodes []*node.Node) uint16 {
	var low uint16
	for i, n := range nodes {
		if i == 0 || n.Handle() < low {
			low = n.Handle()
		}
	}
	return low
}
