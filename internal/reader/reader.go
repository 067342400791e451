// Package reader implements the surface-mounted reader of the EcoCapsule
// system (§5.1): a transmitting PZT behind a PLA wave prism driven by a
// high-voltage amplifier, a receiving PZT glued directly to the surface,
// and the Gen2-style inventory engine that powers up, arbitrates, and
// queries the capsules embedded in a structure.
package reader

//ecolint:deterministic

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/energy"
	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/telemetry"
	"ecocapsule/internal/units"
)

// Config parameterises a reader deployment.
type Config struct {
	// Structure the reader is attached to.
	Structure *geometry.Structure
	// TXPosition and RXPosition on the surface (≈20 cm apart in §5.1).
	TXPosition, RXPosition geometry.Vec3
	// DriveVoltage at the transmitting PZT (V); the amplifier caps at 250 V.
	//ecolint:unit v
	DriveVoltage float64
	// PrismAngleDeg is the prism's incidence angle (default 60°).
	PrismAngleDeg float64
	// CarrierHz (default 230 kHz).
	//ecolint:unit hz
	CarrierHz float64
	// Seed for deterministic behaviour.
	Seed int64
	// MaxOrder overrides the image-source reflection order of every channel
	// this reader builds (0 = the channel default). Fleet-scale deployments
	// drop to order 1: tens of thousands of capsules cannot afford the
	// dense order-3 reverberation tail per link, and the power-up decision
	// is anchored on the early arrivals anyway.
	MaxOrder int
}

// MaxDriveVoltage is the amplifier ceiling (§5.2).
const MaxDriveVoltage = 250.0 //ecolint:unit v

// DefaultPZTCoupling converts channel path gain × drive voltage into PZT
// amplitude at a node; calibrated against the Fig. 12 range anchors.
const DefaultPZTCoupling = 0.091

// Reader drives one structure.
type Reader struct {
	mu  sync.Mutex
	cfg Config

	nodes    []*node.Node
	byHandle map[uint16]*node.Node
	chans    map[uint16]*channel.Channel

	// env provides the physical ground truth for sensor sampling.
	env func(pos geometry.Vec3) sensors.Environment

	// PZTCouplingVoltsPerUnit converts channel path gain × drive voltage
	// into the PZT amplitude at a node (the electro-mechanical coupling
	// of the whole chain), calibrated against the Fig. 12 anchor points.
	PZTCouplingVoltsPerUnit float64

	// faults, when non-nil, routes every frame through the fault layer.
	faults FrameFaults
	// retry bounds the NAK/re-read recovery on CRC failures.
	retry      faultinject.Backoff
	faultStats FaultStats

	// tracer, when non-nil, records interrogation spans; span is the
	// current parent for frame deliveries (only mutated under mu).
	// spanParent, when set, nests the reader's root spans (charge,
	// inventory, read) under an external parent — the fleet's survey span —
	// so one trace covers the whole pipeline.
	tracer     *telemetry.Tracer
	span       *telemetry.Span
	spanParent *telemetry.Span

	// links shares the expensive per-link channel state (impulse
	// responses + convolution plans) across deployments. The reader owns
	// its lifetime: one cache per reader by default, shareable across
	// readers of the same structure through NewWithLinkCache.
	links *channel.Cache

	// carrier is the last acoustic round's incident CBW, reused by the next
	// round of the same shape (see roundCarrier).
	//ecolint:guardedby mu
	carrier roundCBW
}

// New validates the configuration and returns a Reader with its own link
// cache.
func New(cfg Config) (*Reader, error) {
	return NewWithLinkCache(cfg, nil)
}

// NewWithLinkCache is New with an explicit channel cache, letting several
// readers (or successive deployments) of the same structure share the
// per-link impulse responses and convolution plans. A nil cache allocates
// a private one.
func NewWithLinkCache(cfg Config, cache *channel.Cache) (*Reader, error) {
	if cfg.Structure == nil {
		return nil, errors.New("reader: nil structure")
	}
	if cfg.DriveVoltage <= 0 {
		return nil, errors.New("reader: drive voltage must be positive")
	}
	if cfg.DriveVoltage > MaxDriveVoltage {
		return nil, fmt.Errorf("reader: drive voltage %.0f V exceeds the %.0f V amplifier ceiling",
			cfg.DriveVoltage, MaxDriveVoltage)
	}
	if cfg.PrismAngleDeg == 0 {
		cfg.PrismAngleDeg = 60
	}
	if cfg.CarrierHz == 0 {
		cfg.CarrierHz = 230 * units.KHz
	}
	if cache == nil {
		cache = channel.NewCache()
	}
	return &Reader{
		cfg:                     cfg,
		byHandle:                make(map[uint16]*node.Node),
		chans:                   make(map[uint16]*channel.Channel),
		env:                     func(geometry.Vec3) sensors.Environment { return sensors.Environment{} },
		PZTCouplingVoltsPerUnit: DefaultPZTCoupling,
		retry:                   faultinject.DefaultBackoff(),
		links:                   cache,
	}, nil
}

// LinkCache exposes the reader's channel cache (for sharing with another
// reader, inspecting Stats, or eager invalidation after structural edits).
func (r *Reader) LinkCache() *channel.Cache { return r.links }

// SetEnvironment installs the ground-truth sampler used when capsules read
// their sensors.
func (r *Reader) SetEnvironment(f func(pos geometry.Vec3) sensors.Environment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f != nil {
		r.env = f
	}
}

// Deploy embeds a node into the structure, building its acoustic channel.
// A handle is deployed at most once: a second node with the same handle
// would be unaddressable, so it is rejected.
func (r *Reader) Deploy(n *node.Node) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byHandle[n.Handle()]; dup {
		return fmt.Errorf("reader: node %#04x already deployed", n.Handle())
	}
	if !r.cfg.Structure.Inside(n.Position()) {
		return fmt.Errorf("reader: node %#04x position %+v outside %s",
			n.Handle(), n.Position(), r.cfg.Structure.Name)
	}
	ch, err := r.links.Channel(channel.Config{
		Structure:        r.cfg.Structure,
		Source:           r.cfg.TXPosition,
		Destination:      n.Position(),
		CarrierFrequency: r.cfg.CarrierHz,
		PrismAngle:       units.Deg2Rad(r.cfg.PrismAngleDeg),
		Seed:             r.cfg.Seed + int64(n.Handle()),
		MaxOrder:         r.cfg.MaxOrder,
	})
	if err != nil {
		return fmt.Errorf("reader: channel to node %#04x: %w", n.Handle(), err)
	}
	r.nodes = append(r.nodes, n)
	r.byHandle[n.Handle()] = n
	r.chans[n.Handle()] = ch
	mLinkGain.With(handleLabel(n.Handle())).Set(ch.PathGain())
	mLinkSNR.With(handleLabel(n.Handle())).Set(
		ch.SNRAt(r.cfg.DriveVoltage * r.PZTCouplingVoltsPerUnit))
	return nil
}

// Nodes returns the deployed nodes.
func (r *Reader) Nodes() []*node.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*node.Node, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// NodeAmplitude returns the PZT amplitude (volts) delivered to the given
// node at the current drive voltage.
func (r *Reader) NodeAmplitude(handle uint16) (float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodeAmplitudeLocked(handle)
}

func (r *Reader) nodeAmplitudeLocked(handle uint16) (float64, error) {
	ch, ok := r.chans[handle]
	if !ok {
		return 0, fmt.Errorf("reader: unknown node %#04x", handle)
	}
	return r.cfg.DriveVoltage * ch.PathGain() * r.PZTCouplingVoltsPerUnit, nil
}

// Charge runs the continuous body wave for the given duration, advancing
// every node's power state machine in millisecond steps. It returns the
// number of nodes powered up at the end.
//
//ecolint:unit duration s
func (r *Reader) Charge(duration float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.startSpanLocked("charge", lowestHandle(r.nodes))
	if sp != nil {
		sp.Attrf("duration_s", "%g", duration)
	}
	cs := r.cfg.Structure.Material.WaveSpeed()
	const dt = 1 * units.MS
	steps := int(duration / dt)
	if steps < 1 {
		steps = 1
	}
	// The delivered amplitude is a property of the channel, not of the
	// step: hoist it out of the step loop (the per-step lookup dominated
	// the charge cost in profiles).
	amps := make([]float64, len(r.nodes))
	for i, n := range r.nodes {
		vin, err := r.nodeAmplitudeLocked(n.Handle())
		if err != nil {
			amps[i] = -1
			continue
		}
		amps[i] = vin
	}
	// Per-node evolution under a constant amplitude is independent of the
	// other nodes, so the steps×nodes interleaved loop collapses to one
	// batched pass per node — ExciteFor exits early once the state machine
	// reaches its fixpoint.
	for i, n := range r.nodes {
		if amps[i] < 0 {
			continue
		}
		n.ExciteFor(amps[i], r.cfg.CarrierHz, cs, dt, steps)
	}
	up := 0
	for _, n := range r.nodes {
		if n.PoweredUp() {
			up++
		}
	}
	if len(r.nodes) > 0 {
		mChargeRatio.Set(float64(up) / float64(len(r.nodes)))
	}
	if sp != nil {
		sp.Attr("powered", up).Attr("deployed", len(r.nodes)).End()
	}
	return up
}

// broadcastLocked delivers a packet to the given nodes through the fault
// layer and collects replies, plus the number of replies that arrived
// corrupted (CRC failure). Caller holds the lock.
func (r *Reader) broadcastLocked(p protocol.Packet, nodes []*node.Node) ([]*protocol.UplinkFrame, int) {
	var replies []*protocol.UplinkFrame
	corrupted := 0
	for _, n := range nodes {
		up, bad, _ := r.deliverLocked(p, n)
		if bad {
			corrupted++
		}
		if up != nil {
			replies = append(replies, up)
		}
	}
	return replies, corrupted
}

// InventoryResult summarises one full inventory.
type InventoryResult struct {
	Discovered []uint16
	Rounds     int
	Collisions int
	Empties    int
	// Corrupted counts uplink replies that failed CRC at the reader.
	Corrupted int
	// Retries counts NAK re-solicitations issued to recover them.
	Retries int
}

// Inventory runs adaptive-Q slotted-ALOHA rounds until every powered node
// has been singulated or maxRounds is exhausted (§3.4's TDMA).
func (r *Reader) Inventory(maxRounds int) InventoryResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inventoryLocked(maxRounds, r.nodes)
}

// InventorySubset runs the same slotted-ALOHA arbitration, but solicits
// only the capsules whose handles are listed — the fleet's TDMA partition,
// where each station arbitrates the capsules it serves best so stations
// can inventory concurrently without touching each other's capsules. A nil
// handle list is the full inventory. Unknown handles are ignored.
func (r *Reader) InventorySubset(maxRounds int, handles []uint16) InventoryResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	if handles == nil {
		return r.inventoryLocked(maxRounds, r.nodes)
	}
	want := make(map[uint16]bool, len(handles))
	for _, h := range handles {
		want[h] = true
	}
	var subset []*node.Node
	for _, n := range r.nodes {
		if want[n.Handle()] {
			subset = append(subset, n)
		}
	}
	return r.inventoryLocked(maxRounds, subset)
}

func (r *Reader) inventoryLocked(maxRounds int, nodes []*node.Node) InventoryResult {
	mInventories.Inc()
	invSpan := r.startSpanLocked("inventory", lowestHandle(nodes))
	if invSpan != nil {
		invSpan.Attr("max_rounds", maxRounds)
		defer func() { r.span = nil }()
	}
	found := make(map[uint16]bool)
	var res InventoryResult
	q := 2
	for round := 0; round < maxRounds; round++ {
		res.Rounds++
		mRounds.Inc()
		var roundSpan *telemetry.Span
		if invSpan != nil {
			roundSpan = invSpan.Child("round").Attr("n", round).Attr("q", q)
		}
		var outcome protocol.RoundOutcome
		// Query opens the round; each subsequent slot is a QueryRep.
		slots := 1 << uint(q)
		for slot := 0; slot < slots; slot++ {
			var p protocol.Packet
			if slot == 0 {
				p = protocol.Packet{Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{byte(q)}}
			} else {
				p = protocol.Packet{Cmd: protocol.CmdQueryRep, Target: protocol.Broadcast}
			}
			if roundSpan != nil {
				r.span = roundSpan.Child("slot").Attr("n", slot).Attr("cmd", p.Cmd.String())
			}
			replies, corrupted := r.broadcastLocked(p, nodes)
			// A slot that produced only CRC garbage is re-solicited with
			// bounded exponential backoff: a NAK returns the replying
			// capsules to arbitration, and a QueryRep draws their
			// backscatter again through (hopefully) a cleaner channel.
			for attempt := 0; corrupted > 0 && len(replies) == 0 && attempt < r.retry.MaxAttempts; attempt++ {
				res.Corrupted += corrupted
				res.Retries++
				r.faultStats.Retries++
				delay := r.retry.Delay(attempt)
				r.faultStats.Backoff += delay
				mRetries.Inc()
				mBackoffSeconds.Add(delay.Seconds())
				telemetry.RecordFlight("reader", "backoff",
					fmt.Sprintf("NAK re-solicitation, simulated backoff %v", delay))
				r.broadcastLocked(protocol.Packet{Cmd: protocol.CmdNak, Target: protocol.Broadcast}, nodes)
				replies, corrupted = r.broadcastLocked(protocol.Packet{Cmd: protocol.CmdQueryRep, Target: protocol.Broadcast}, nodes)
			}
			res.Corrupted += corrupted
			switch len(replies) {
			case 0:
				outcome.Empties++
				mSlots.With(slotEmpty).Inc()
				r.endSlotSpan("empty")
			case 1:
				outcome.Singles++
				mSlots.With(slotSingle).Inc()
				h := replies[0].Handle
				if !found[h] {
					found[h] = true
					res.Discovered = append(res.Discovered, h)
				}
				r.endSlotSpan("single")
				// Ack singulates; the node leaves the round.
				r.broadcastLocked(protocol.Packet{Cmd: protocol.CmdAck, Target: h}, nodes)
			default:
				outcome.Collisions++
				res.Collisions++
				mSlots.With(slotCollision).Inc()
				r.endSlotSpan("collision")
				// Collided nodes stay replying; sleep them back to
				// standby so the next round redraws their slots.
				for _, reply := range replies {
					r.broadcastLocked(protocol.Packet{Cmd: protocol.CmdSleep, Target: reply.Handle}, nodes)
				}
			}
			r.span = nil
		}
		res.Empties += outcome.Empties
		powered := 0
		for _, n := range nodes {
			if n.PoweredUp() {
				powered++
			}
		}
		if roundSpan != nil {
			roundSpan.Attr("singles", outcome.Singles).
				Attr("collisions", outcome.Collisions).
				Attr("empties", outcome.Empties).End()
		}
		if len(found) >= powered {
			break
		}
		q = protocol.AdaptQ(q, outcome)
	}
	if invSpan != nil {
		invSpan.Attr("discovered", len(res.Discovered)).Attr("rounds", res.Rounds).End()
	}
	sort.Slice(res.Discovered, func(i, j int) bool { return res.Discovered[i] < res.Discovered[j] })
	return res
}

// endSlotSpan closes the active slot span with its outcome; the span stays
// installed so the singulating Ack/Sleep deliveries still nest under it
// until the caller clears r.span.
func (r *Reader) endSlotSpan(outcome string) {
	if r.span != nil {
		r.span.Attr("outcome", outcome).End()
	}
}

// ReadSensor requests one sensor reading from an addressed node and decodes
// the reply.
func (r *Reader) ReadSensor(handle uint16, st sensors.SensorType) ([]float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	target := r.byHandle[handle]
	if target == nil {
		mReads.With(readErr).Inc()
		return nil, fmt.Errorf("reader: unknown node %#04x", handle)
	}
	readSpan := r.startSpanLocked("read", handle)
	if readSpan != nil {
		readSpan.Attr("capsule", handleLabel(handle)).Attr("sensor", st.String())
		defer func() { r.span = nil }()
	}
	p := protocol.Packet{Cmd: protocol.CmdReadSensor, Target: handle, Payload: []byte{byte(st)}}
	attempts := 1
	if r.faults != nil && r.retry.MaxAttempts > 0 {
		attempts += r.retry.MaxAttempts
	}
	lastErr := errors.New("reader: node stayed silent")
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.faultStats.Retries++
			delay := r.retry.Delay(a - 1)
			r.faultStats.Backoff += delay
			mRetries.Inc()
			mBackoffSeconds.Add(delay.Seconds())
			telemetry.RecordFlight("reader", "backoff",
				fmt.Sprintf("read re-send %d, simulated backoff %v", a, delay))
		}
		if readSpan != nil {
			r.span = readSpan.Child("attempt").Attr("n", a)
		}
		up, bad, err := r.deliverLocked(p, target)
		if err != nil {
			// A node-level rejection (not powered, no such sensor) is not
			// a link fault; retrying cannot change it.
			r.endAttemptSpan("rejected")
			r.finishRead(readSpan, readErr, a+1)
			return nil, err
		}
		if up != nil {
			// Round-trip through the wire framing, as the acoustic link
			// would (the fault path already did this).
			parsed := *up
			if r.faults == nil {
				parsed, err = protocol.UnmarshalUplink(up.Marshal())
				if err != nil {
					r.endAttemptSpan("corrupted")
					r.finishRead(readSpan, readErr, a+1)
					return nil, fmt.Errorf("reader: uplink corrupted: %w", err)
				}
			}
			r.endAttemptSpan("ok")
			r.finishRead(readSpan, readOK, a+1)
			mReadAttempts.Observe(float64(a + 1))
			return sensors.Decode(sensors.SensorType(parsed.Kind), parsed.Data)
		}
		if bad {
			lastErr = fmt.Errorf("reader: uplink corrupted: %w", protocol.ErrBadCRC)
			r.endAttemptSpan("corrupted")
		} else {
			r.endAttemptSpan("silent")
		}
	}
	r.finishRead(readSpan, readErr, attempts)
	return nil, lastErr
}

// endAttemptSpan closes the active read-attempt span with its outcome.
func (r *Reader) endAttemptSpan(outcome string) {
	if r.span != nil {
		r.span.Attr("outcome", outcome).End()
		r.span = nil
	}
}

// finishRead records the read result metric and closes the read root span.
func (r *Reader) finishRead(sp *telemetry.Span, result string, attempts int) {
	mReads.With(result).Inc()
	if sp != nil {
		sp.Attr("result", result).Attr("attempts", attempts).End()
	}
}

// SetDriveVoltage changes the amplifier setting (clamped to the ceiling).
//
//ecolint:unit v v
func (r *Reader) SetDriveVoltage(v float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v <= 0 {
		return errors.New("reader: drive voltage must be positive")
	}
	if v > MaxDriveVoltage {
		return fmt.Errorf("reader: %g V exceeds the %g V ceiling", v, MaxDriveVoltage)
	}
	r.cfg.DriveVoltage = v
	return nil
}

// DriveVoltage returns the current amplifier setting.
func (r *Reader) DriveVoltage() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.DriveVoltage
}

// MaxPowerUpRange sweeps a probe node along the structure's long axis and
// returns the farthest distance (m) at which it can still be powered up at
// the given drive voltage — the Fig. 12 measurement procedure.
func MaxPowerUpRange(cfg Config, voltage float64) (float64, error) {
	if voltage <= 0 || voltage > MaxDriveVoltage {
		return 0, fmt.Errorf("reader: voltage %g V outside (0, %g]", voltage, MaxDriveVoltage)
	}
	cfg.DriveVoltage = voltage
	r, err := New(cfg)
	if err != nil {
		return 0, err
	}
	s := cfg.Structure
	harv := energy.DefaultHarvester()
	axisMax := s.MaxRangeAxis()
	hraGain := physics.PaperHRA().Gain(s.Material.WaveSpeed(), r.cfg.CarrierHz)
	// Binary search the farthest position that still activates.
	probe := func(d float64) bool {
		pos := probePosition(s, d)
		ch, err := channel.New(channel.Config{
			Structure:        s,
			Source:           cfg.TXPosition,
			CarrierFrequency: r.cfg.CarrierHz,
			Destination:      pos,
			PrismAngle:       units.Deg2Rad(r.cfg.PrismAngleDeg),
		})
		if err != nil {
			return false
		}
		// The HRA boost applies before the threshold comparison, exactly
		// as in the node's Excite path.
		vin := voltage * ch.PathGain() * r.PZTCouplingVoltsPerUnit * hraGain
		return harv.CanActivate(vin)
	}
	if !probe(0.1) {
		return 0, nil
	}
	lo, hi := 0.1, axisMax
	if probe(hi) {
		return hi, nil
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// probePosition places the probe node d metres along the structure's long
// axis, centred in the transverse dimensions.
func probePosition(s *geometry.Structure, d float64) geometry.Vec3 {
	switch s.Shape {
	case geometry.Cylinder:
		return geometry.Vec3{X: 0, Y: d, Z: 0}
	default:
		y := s.Height / 2
		z := s.Thickness / 2
		return geometry.Vec3{X: d, Y: y, Z: z}
	}
}
