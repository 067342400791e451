package reader

import (
	"ecocapsule/internal/node"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/telemetry"
)

// Metric handles are resolved once at init so the interrogation hot path
// makes no registry lookups.
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

// readTally counts addressed reads between publishes: the reads' share of
// ecocapsule_reader_reads_total and ecocapsule_reader_read_attempts. A
// survey makes thousands of reads on every core; counting them in a plain
// field under the reader's lock, which each read already holds, and
// publishing once per operation keeps the shared metric cache lines out of
// the per-read path.
type readTally struct {
	ok, failed uint64
	// byAttempts[a] counts the successful reads that took a delivery
	// attempts. A read needing more attempts than it holds is observed at
	// once.
	byAttempts [9]uint64
}

// count tallies one read that succeeded (ok) or failed after attempts
// delivery attempts.
//
//ecolint:hotpath plain integer adds
func (t *readTally) count(ok bool, attempts int) {
	if !ok {
		t.failed++
		return
	}
	t.ok++
	if attempts < len(t.byAttempts) {
		t.byAttempts[attempts]++
	} else {
		mReadAttempts.Observe(float64(attempts))
	}
}

// PublishReads adds the reads counted since the last publish to the read
// metrics and zeroes the tally. ReadSensor publishes its own read, and the
// fleet publishes each station once per survey and once per fleet read,
// so the metrics hold every read whose result a caller has seen.
func (r *Reader) PublishReads() {
	r.mu.Lock()
	t := r.reads
	r.reads = readTally{}
	r.mu.Unlock()
	cReadOK.Add(float64(t.ok))
	cReadErr.Add(float64(t.failed))
	for a, n := range t.byAttempts {
		mReadAttempts.ObserveN(float64(a), n)
	}
}

// handleLabel renders a capsule handle the way every metric labels it.
func handleLabel(h uint16) string {
	var b [6]byte
	return string(protocol.AppendHandle(b[:0], h))
}

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
