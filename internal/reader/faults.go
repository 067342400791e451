package reader

import (
	"time"

	"ecocapsule/internal/node"
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
// from its wire frame. corrupted reports an uplink that arrived but failed
// CRC; err carries the node-level rejection (not powered, no such sensor,
// ...) for addressed commands. Caller holds the lock.
func (r *Reader) deliverLocked(parent *telemetry.Span, p protocol.Packet, n *node.Node) (up *protocol.UplinkFrame, corrupted bool, err error) {
	env := r.env(n.Position())
	h := n.Handle()
	var sp *telemetry.Span
	if parent != nil {
		sp = parent.Child("deliver").
			Attr("capsule", handleLabel(h)).Attr("cmd", p.Cmd.String())
	}
	pkt := p
	if r.faults != nil {
		brownout := false
		if cf, ok := r.faults.(CapsuleFaults); ok && cf.Brownout(h) {
			// The capsule loses its storage charge mid-operation: one
			// zero-amplitude excitation step drops it back to dormant.
			n.Excite(0, CarrierHz, r.cfg.Structure.Material.WaveSpeed(), brownoutStep)
			brownout = true
		}
		wire := p.Marshal()
		frame, ok := r.faults.Downlink(h, wire)
		if sp != nil {
			sp.Child("pie_downlink").Attr("bytes", len(wire)).
				Attr("delivered", ok).Attr("brownout", brownout).End()
		}
		if !ok {
			endOutcome(sp, "downlink_dropped")
			return nil, false, nil // lost in the concrete
		}
		pkt, err = protocol.Unmarshal(frame)
		if err != nil {
			endOutcome(sp, "downlink_corrupted")
			return nil, false, nil // capsule's CRC rejects the command
		}
	} else if sp != nil {
		sp.Child("pie_downlink").Attr("bytes", len(p.Marshal())).
			Attr("delivered", true).Attr("brownout", false).End()
	}
	u, err := n.HandleDownlink(pkt, env)
	if err != nil || u == nil {
		if err != nil {
			endOutcome(sp, "rejected")
		} else {
			endOutcome(sp, "silent")
		}
		return nil, false, err
	}
	wire := u.Marshal()
	frame, ok := wire, true
	if r.faults != nil {
		frame, ok = r.faults.Uplink(h, wire)
	}
	if sp != nil {
		sp.Child("fm0_uplink").Attr("bytes", len(wire)).Attr("delivered", ok).End()
	}
	if !ok {
		endOutcome(sp, "uplink_dropped")
		return nil, false, nil // backscatter never reached the RX
	}
	parsed, perr := protocol.UnmarshalUplink(frame)
	if perr != nil {
		r.faultStats.CorruptedReplies++
		mCorrupted.Inc()
		telemetry.RecordFlight("reader", "crc_fail",
			"uplink frame from "+handleLabel(h)+" failed CRC")
		if sp != nil {
			sp.Child("decode").Attr("result", "bad_crc").End()
		}
		endOutcome(sp, "uplink_corrupted")
		return nil, true, nil
	}
	if sp != nil {
		sp.Child("decode").Attr("result", "ok").End()
	}
	endOutcome(sp, "reply")
	// u is the node's freshly allocated reply: hand it back holding what
	// the reader parsed off the wire.
	*u = parsed
	return u, false, nil
}
