package reader

import (
	"time"

	"ecocapsule/internal/node"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/telemetry"
	"ecocapsule/internal/units"
)

// brownoutStep is the excitation step used to model an instantaneous
// storage-capacitor collapse.
const brownoutStep = 1 * units.MS

// FrameFaults is the injectable fault hook on the reader's acoustic link.
// When installed, every downlink and uplink frame is marshalled to its wire
// bytes and routed through the hook, which may corrupt the frame or drop it
// (ok = false). faultinject.Injector implements it; production readers run
// with no hook installed and pay nothing.
type FrameFaults interface {
	// Downlink transforms a reader→capsule frame for the given capsule.
	Downlink(handle uint16, frame []byte) ([]byte, bool)
	// Uplink transforms a capsule→reader frame.
	Uplink(handle uint16, frame []byte) ([]byte, bool)
}

// CapsuleFaults is optionally implemented by a FrameFaults hook to inject
// capsule-side power faults: Brownout is drawn once per downlink delivery,
// and true knocks the capsule back to dormant mid-operation.
type CapsuleFaults interface {
	Brownout(handle uint16) bool
}

// FaultStats counts the reader's own view of link trouble and what its
// resilience machinery spent recovering.
type FaultStats struct {
	// CorruptedReplies is the number of uplink frames that arrived but
	// failed CRC.
	CorruptedReplies int
	// Retries is the number of NAK re-solicitations and read re-sends.
	Retries int
	// Backoff is the simulated time spent in retry backoff.
	Backoff time.Duration
}

// SetFrameFaults installs (or, with nil, removes) the fault hook.
func (r *Reader) SetFrameFaults(f FrameFaults) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = f
}

// FaultStats returns a snapshot of the reader's resilience counters.
func (r *Reader) FaultStats() FaultStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.faultStats
}

// deliverLocked transports one packet to one node through the fault layer,
// as a child span of parent (nil: untraced), and returns the reply parsed
// from its wire frame, with ok false when no reply arrived. The reply's
// Data is a view of the reader's exchange scratch, valid until the next
// delivery. corrupted reports an uplink that arrived but failed CRC; err
// carries the node-level rejection (not powered, no such sensor, ...) for
// addressed commands. Caller holds the lock.
//
//ecolint:hotpath an untraced, fault-free exchange reuses the reader's scratch
func (r *Reader) deliverLocked(parent *telemetry.Span, p protocol.Packet, n *node.Node) (up protocol.UplinkFrame, ok, corrupted bool, err error) {
	env := r.env(n.Position())
	h := n.Handle()
	var x exchangeTrace
	if parent != nil {
		//ecolint:ignore hotalloc only a traced exchange renders its spans
		defer x.record(parent, h, p)
	}
	pkt := p
	if r.faults != nil {
		if cf, ok := r.faults.(CapsuleFaults); ok && cf.Brownout(h) {
			// The capsule loses its storage charge mid-operation: one
			// zero-amplitude excitation step drops it back to dormant.
			n.Excite(0, physics.CarrierHz, r.cfg.Structure.Material.WaveSpeed(), brownoutStep)
			x.brownout = true
		}
		r.downWire = p.AppendMarshal(r.downWire[:0])
		frame, delivered := r.faults.Downlink(h, r.downWire)
		if !delivered {
			x.downDropped, x.outcome = true, "downlink_dropped"
			return up, false, false, nil // lost in the concrete
		}
		if pkt, err = protocol.Unmarshal(frame); err != nil {
			x.outcome = "downlink_corrupted"
			return up, false, false, nil // capsule's CRC rejects the command
		}
	}
	u, replied, err := n.HandleDownlink(pkt, env, r.sample[:0])
	if cap(u.Data) > cap(r.sample) {
		r.sample = u.Data[:0] // keep the grown buffer for the next reading
	}
	if err != nil {
		x.outcome = "rejected"
		return up, false, false, err
	}
	if !replied {
		x.outcome = "silent"
		return up, false, false, nil
	}
	r.upWire = u.AppendMarshal(r.upWire[:0])
	frame, delivered := r.upWire, true
	if r.faults != nil {
		frame, delivered = r.faults.Uplink(h, r.upWire)
	}
	x.upBytes, x.upDelivered = len(r.upWire), delivered
	if !delivered {
		x.outcome = "uplink_dropped"
		return up, false, false, nil // backscatter never reached the RX
	}
	if up, err = protocol.UnmarshalUplink(frame); err != nil {
		r.faultStats.CorruptedReplies++
		mCorrupted.Inc()
		//ecolint:ignore hotalloc a CRC failure happens only under a fault plan
		telemetry.RecordFlight("reader", "crc_fail", "uplink frame from "+handleLabel(h)+" failed CRC")
		x.decode, x.outcome = "bad_crc", "uplink_corrupted"
		return up, false, true, nil
	}
	x.decode, x.outcome = "ok", "reply"
	return up, true, false, nil
}

// exchangeTrace is what a traced delivery renders once it is over: its
// deliver span and the pie_downlink, fm0_uplink and decode children, so
// an untraced exchange never touches a span.
type exchangeTrace struct {
	downDropped, brownout bool
	// upBytes is the reply's wire length, 0 when the capsule sent none.
	upBytes     int
	upDelivered bool
	// decode is the reply's CRC verdict, "" when nothing reached the RX.
	decode  string
	outcome string
}

// record renders the delivery of p to capsule h as a child of parent.
func (x *exchangeTrace) record(parent *telemetry.Span, h uint16, p protocol.Packet) {
	sp := parent.Child("deliver").Attr("capsule", handleLabel(h)).Attr("cmd", p.Cmd.String())
	sp.Child("pie_downlink").Attr("bytes", len(p.AppendMarshal(nil))).
		Attr("delivered", !x.downDropped).Attr("brownout", x.brownout).End()
	if x.upBytes > 0 {
		sp.Child("fm0_uplink").Attr("bytes", x.upBytes).Attr("delivered", x.upDelivered).End()
	}
	if x.decode != "" {
		sp.Child("decode").Attr("result", x.decode).End()
	}
	endOutcome(sp, x.outcome)
}
