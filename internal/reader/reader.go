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
	"slices"
	"sort"
	"strconv"
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
	// TXPosition is the transmitting PZT on the surface.
	TXPosition geometry.Vec3
	// RXPosition is the receiving PZT (≈20 cm from TX in §5.1). Nothing
	// reads it: the uplink return is modelled over the TX→capsule channel,
	// so setting it changes no outcome.
	RXPosition geometry.Vec3
	// DriveVoltage at the transmitting PZT (V); the amplifier caps at 250 V.
	//ecolint:unit v
	DriveVoltage float64
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
// amplitude at a node (the electro-mechanical coupling of the whole
// chain); calibrated against the Fig. 12 range anchors.
const DefaultPZTCoupling = 0.091

// errNodeSilent reports an addressed node that never replied: it stayed
// dormant, or every exchange within the retry budget was lost.
var errNodeSilent = errors.New("reader: node stayed silent")

// errUplinkCorrupted reports a read whose last reply failed CRC.
var errUplinkCorrupted = fmt.Errorf("reader: uplink corrupted: %w", protocol.ErrBadCRC)

// Reader drives one structure. A read or inventory takes its trace parent
// as an argument and reports its own link counters, so no span and no
// per-call counter lives on the Reader between calls.
type Reader struct {
	mu  sync.Mutex
	cfg Config

	// nodes holds the deployed capsules in deploy order; byHandle finds
	// each one's link by handle.
	//ecolint:guardedby mu
	nodes []*node.Node
	//ecolint:guardedby mu
	byHandle capsuleIndex

	// env provides the physical ground truth for sensor sampling.
	//ecolint:guardedby mu
	env func(pos geometry.Vec3) sensors.Environment

	// faults, when non-nil, routes every frame through the fault layer.
	//ecolint:guardedby mu
	faults FrameFaults
	// retry bounds the NAK/re-read recovery on CRC failures.
	retry faultinject.Backoff
	// faultStats accumulates every exchange's link counters over the
	// reader's lifetime.
	//ecolint:guardedby mu
	faultStats FaultStats
	// reads counts the addressed reads not yet published to the read
	// metrics (see PublishReads).
	//ecolint:guardedby mu
	reads readTally

	// tracer, when non-nil, records interrogation spans.
	//ecolint:guardedby mu
	tracer *telemetry.Tracer

	// links keeps the expensive per-link channel state (impulse
	// responses and their merged convolver taps) of the waveform channels
	// the acoustic paths build. Each reader owns a private cache.
	links *channel.Cache

	// carrier is the longest incident CBW an acoustic round has rendered;
	// every round no longer than it takes a prefix (see roundCarrier).
	//ecolint:guardedby mu
	carrier roundCBW

	// Exchange scratch, reused by every delivery: the capsule's sampled
	// reading and the command and reply wire frames. A reply deliverLocked
	// returns is a view of it, valid until the next delivery.
	//ecolint:guardedby mu
	sample, downWire, upWire []byte
}

// New validates the configuration and returns a Reader with its own link
// cache.
func New(cfg Config) (*Reader, error) {
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
	return &Reader{
		cfg:   cfg,
		env:   func(geometry.Vec3) sensors.Environment { return sensors.Environment{} },
		retry: faultinject.DefaultBackoff(),
		links: channel.NewCache(),
	}, nil
}

// capsuleIndex finds a deployed capsule's link by handle: handles in
// ascending order, and at the same position in links the link to the
// capsule each one names. A binary search over the 2-byte keys beats a
// map[uint16] lookup, which Go hashes with no fast path for 16-bit keys.
type capsuleIndex struct {
	handles []uint16
	links   []link
}

// link is one deployed capsule as the reader sees it: the node, the path
// gain every frame-level exchange reads, and the waveform channel, which
// stays nil until an acoustic round or broadcast first needs it (see
// channelLocked).
type link struct {
	n *node.Node
	//ecolint:unit dimensionless
	gain float64
	ch   *channel.Channel
}

// find returns the link to the capsule with handle h, nil when none is
// deployed. The pointer is valid while the caller holds the reader's lock.
//
//ecolint:hotpath every addressed exchange looks its capsule up here
func (x *capsuleIndex) find(h uint16) *link {
	i, ok := slices.BinarySearch(x.handles, h)
	if !ok {
		return nil
	}
	return &x.links[i]
}

// insert adds l under handle h, keeping the handles sorted; it reports
// false, and adds nothing, when h is already taken. Capsules deployed in
// ascending handle order (every fleet deploys them so) append.
func (x *capsuleIndex) insert(h uint16, l link) bool {
	i, dup := slices.BinarySearch(x.handles, h)
	if dup {
		return false
	}
	x.handles = slices.Insert(x.handles, i, h)
	x.links = slices.Insert(x.links, i, l)
	return true
}

// LinkCache exposes the reader's private channel cache: its Stats, and
// channels built through it. The acoustic paths fill it on a link's first
// waveform use; Deploy does not touch it.
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

// Deploy embeds a node into the structure and evaluates the path gain of
// its link; a link with no propagating path (channel.ErrNoPath) is
// rejected. The link's waveform channel is not built here (see
// channelLocked). A handle is deployed at most once: a second node with
// the same handle would be unaddressable, so it is rejected.
func (r *Reader) Deploy(n *node.Node) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byHandle.find(n.Handle()) != nil {
		return fmt.Errorf("reader: node %#04x already deployed", n.Handle())
	}
	if !r.cfg.Structure.Inside(n.Position()) {
		return fmt.Errorf("reader: node %#04x position %+v outside %s",
			n.Handle(), n.Position(), r.cfg.Structure.Name)
	}
	gain, err := channel.LinkGain(r.linkConfigOf(n))
	if err != nil {
		return fmt.Errorf("reader: channel to node %#04x: %w", n.Handle(), err)
	}
	r.nodes = append(r.nodes, n)
	r.byHandle.insert(n.Handle(), link{n: n, gain: gain})
	return nil
}

// channelLocked returns the waveform channel of l, building it through the
// reader's link cache on first use. It is built from the config and seed
// Deploy evaluated the gain from, and nothing has transmitted over the
// link before, so it is bit-identical to a channel built at Deploy.
// Caller holds the lock.
func (r *Reader) channelLocked(l *link) (*channel.Channel, error) {
	if l.ch == nil {
		ch, err := r.links.Channel(r.linkConfigOf(l.n))
		if err != nil {
			return nil, fmt.Errorf("reader: channel to node %#04x: %w", l.n.Handle(), err)
		}
		l.ch = ch
	}
	return l.ch, nil
}

// linkConfigOf is the channel config of the link to n: the reader's
// structure, TX position and reflection order, seeded by the handle.
func (r *Reader) linkConfigOf(n *node.Node) channel.Config {
	return linkConfig(r.cfg.Structure, r.cfg.TXPosition, n.Position(),
		r.cfg.Seed+int64(n.Handle()), r.cfg.MaxOrder)
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
	l := r.byHandle.find(handle)
	if l == nil {
		return 0, fmt.Errorf("reader: unknown node %#04x", handle)
	}
	return r.cfg.DriveVoltage * l.gain * DefaultPZTCoupling, nil
}

// Charge runs the continuous body wave for the given duration, advancing
// every node's power state machine (node.ChargeFor). It returns the number
// of nodes powered up at the end.
//
//ecolint:unit duration s
func (r *Reader) Charge(duration float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.startSpanLocked(nil, "charge", lowestHandle(r.nodes))
	if sp != nil {
		sp.Attrf("duration_s", "%g", duration)
	}
	cs := r.cfg.Structure.Material.WaveSpeed()
	// Each node evolves independently under its channel's constant
	// amplitude, in one batched pass that exits at its fixpoint.
	for _, n := range r.nodes {
		vin, err := r.nodeAmplitudeLocked(n.Handle())
		if err != nil {
			continue
		}
		n.ChargeFor(vin, cs, duration)
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
// layer, each delivery a child of parent (nil: untraced), and collects the
// handles that replied, plus the number of replies that arrived corrupted
// (CRC failure). Caller holds the lock.
func (r *Reader) broadcastLocked(parent *telemetry.Span, p protocol.Packet, nodes []*node.Node) ([]uint16, int) {
	var replied []uint16
	corrupted := 0
	for _, n := range nodes {
		up, ok, bad, _ := r.deliverLocked(parent, p, n)
		if bad {
			corrupted++
		}
		if ok {
			replied = append(replied, up.Handle)
		}
	}
	return replied, corrupted
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
	return r.inventoryLocked(nil, maxRounds, r.nodes)
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
		return r.inventoryLocked(nil, maxRounds, r.nodes)
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
	return r.inventoryLocked(nil, maxRounds, subset)
}

// inventoryLocked runs the arbitration over nodes; its span is a child of
// parent, or a root when parent is nil. Caller holds the lock.
func (r *Reader) inventoryLocked(parent *telemetry.Span, maxRounds int, nodes []*node.Node) InventoryResult {
	mInventories.Inc()
	invSpan := r.startSpanLocked(parent, "inventory", lowestHandle(nodes))
	if invSpan != nil {
		invSpan.Attr("max_rounds", maxRounds)
	}
	found := make(map[uint16]bool)
	var res InventoryResult
	var link FaultStats
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
			// The slot span parents every delivery of the slot, the
			// singulating Ack/Sleep after it has ended included.
			var slotSpan *telemetry.Span
			if roundSpan != nil {
				slotSpan = roundSpan.Child("slot").Attr("n", slot).Attr("cmd", p.Cmd.String())
			}
			replies, corrupted := r.broadcastLocked(slotSpan, p, nodes)
			// A slot that produced only CRC garbage is re-solicited with
			// bounded exponential backoff: a NAK returns the replying
			// capsules to arbitration, and a QueryRep draws their
			// backscatter again through (hopefully) a cleaner channel.
			for attempt := 0; corrupted > 0 && len(replies) == 0 && attempt < r.retry.MaxAttempts; attempt++ {
				res.Corrupted += corrupted
				r.backoffLocked(&link, attempt, false)
				r.broadcastLocked(slotSpan, protocol.Packet{Cmd: protocol.CmdNak, Target: protocol.Broadcast}, nodes)
				replies, corrupted = r.broadcastLocked(slotSpan, protocol.Packet{Cmd: protocol.CmdQueryRep, Target: protocol.Broadcast}, nodes)
			}
			res.Corrupted += corrupted
			switch len(replies) {
			case 0:
				outcome.Empties++
				cSlotEmpty.Inc()
				endOutcome(slotSpan, "empty")
			case 1:
				outcome.Singles++
				cSlotSingle.Inc()
				h := replies[0]
				if !found[h] {
					found[h] = true
					res.Discovered = append(res.Discovered, h)
				}
				endOutcome(slotSpan, "single")
				// Ack singulates; the node leaves the round.
				r.broadcastLocked(slotSpan, protocol.Packet{Cmd: protocol.CmdAck, Target: h}, nodes)
			default:
				outcome.Collisions++
				res.Collisions++
				cSlotCollision.Inc()
				endOutcome(slotSpan, "collision")
				// Collided nodes stay replying; sleep them back to
				// standby so the next round redraws their slots.
				for _, h := range replies {
					r.broadcastLocked(slotSpan, protocol.Packet{Cmd: protocol.CmdSleep, Target: h}, nodes)
				}
			}
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
	res.Retries = link.Retries
	if invSpan != nil {
		invSpan.Attr("discovered", len(res.Discovered)).Attr("rounds", res.Rounds).End()
	}
	sort.Slice(res.Discovered, func(i, j int) bool { return res.Discovered[i] < res.Discovered[j] })
	return res
}

// ReadSensor is ReadSensorUnder with no parent span (a traced read is a
// root), dropping the read's link counters. The read is published to the
// read metrics before it returns.
func (r *Reader) ReadSensor(handle uint16, st sensors.SensorType) ([]float64, error) {
	vals, _, err := r.ReadSensorUnder(nil, handle, st)
	r.PublishReads()
	if err != nil {
		return nil, err
	}
	return vals[:], nil
}

// ReadSensorUnder requests one sensor reading from an addressed node,
// re-sending within the retry budget while the link loses or corrupts the
// exchange, and decodes the reply. With a tracer installed the read span is
// a child of parent (keyed by handle), or a root when parent is nil. It
// returns the decoded values and this read's own link counters.
//
// The read is counted in the reader's read tally, not in the shared read
// metrics: the caller publishes the tally with PublishReads once per
// operation (a survey, one fleet read), before its result is visible. A
// read of an unknown handle is the exception, counted at once.
//
//ecolint:hotpath an untraced, fault-free read reuses the reader's exchange scratch
func (r *Reader) ReadSensorUnder(parent *telemetry.Span, handle uint16, st sensors.SensorType) ([2]float64, FaultStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var link FaultStats
	target := r.byHandle.find(handle)
	if target == nil {
		cReadErr.Inc()
		//ecolint:ignore hotalloc an unknown handle is a caller error, never a survey read
		return [2]float64{}, link, fmt.Errorf("reader: unknown node %#04x", handle)
	}
	readSpan := r.startSpanLocked(parent, "read", handle)
	if readSpan != nil {
		//ecolint:ignore hotalloc only a traced read has a span
		readSpan.Attr("capsule", handleLabel(handle)).Attr("sensor", st.String())
	}
	cmd := [1]byte{byte(st)}
	p := protocol.Packet{Cmd: protocol.CmdReadSensor, Target: handle, Payload: cmd[:]}
	attempts := 1
	if r.faults != nil && r.retry.MaxAttempts > 0 {
		attempts += r.retry.MaxAttempts
	}
	lastErr := errNodeSilent
	for a := 0; a < attempts; a++ {
		if a > 0 {
			//ecolint:ignore hotalloc re-sends happen only under a fault plan
			r.backoffLocked(&link, a-1, true)
		}
		var attemptSpan *telemetry.Span
		if readSpan != nil {
			//ecolint:ignore hotalloc only a traced read has a span
			attemptSpan = readSpan.Child("attempt").Attr("n", a)
		}
		up, ok, bad, err := r.deliverLocked(attemptSpan, p, target.n)
		if err != nil {
			// A node-level rejection (not powered, no such sensor) is not
			// a link fault; retrying cannot change it.
			endOutcome(attemptSpan, "rejected")
			r.finishReadLocked(readSpan, readErr, a+1)
			return [2]float64{}, link, err
		}
		if ok {
			endOutcome(attemptSpan, "ok")
			r.finishReadLocked(readSpan, readOK, a+1)
			vals, err := sensors.Decode(sensors.SensorType(up.Kind), up.Data)
			return vals, link, err
		}
		if bad {
			link.CorruptedReplies++
			lastErr = errUplinkCorrupted
			endOutcome(attemptSpan, "corrupted")
		} else {
			endOutcome(attemptSpan, "silent")
		}
	}
	r.finishReadLocked(readSpan, readErr, attempts)
	return [2]float64{}, link, lastErr
}

// backoffLocked books retry number attempt (0-based) of one exchange: the
// simulated backoff delay lands on the exchange's own counters (link), the
// reader's lifetime counters, the metrics and the flight recorder, which
// names it a read re-send (numbered attempt+1) when resend is set and a
// NAK re-solicitation otherwise. Caller holds the lock.
func (r *Reader) backoffLocked(link *FaultStats, attempt int, resend bool) {
	delay := r.retry.Delay(attempt)
	link.Retries++
	link.Backoff += delay
	r.faultStats.Retries++
	r.faultStats.Backoff += delay
	mRetries.Inc()
	mBackoffSeconds.Add(delay.Seconds())
	note := ", simulated backoff " + delay.String()
	if resend {
		telemetry.RecordFlight("reader", "backoff", "read re-send "+strconv.Itoa(attempt+1)+note)
	} else {
		telemetry.RecordFlight("reader", "backoff", "NAK re-solicitation"+note)
	}
}

// endOutcome closes a slot, attempt or deliver span with its outcome.
//
//ecolint:hotpath a no-op without a span
func endOutcome(sp *telemetry.Span, outcome string) {
	if sp != nil {
		//ecolint:ignore hotalloc only a traced exchange has a span
		sp.Attr("outcome", outcome).End()
	}
}

// finishReadLocked counts the read in the reader's tally and closes the
// read span. Caller holds the lock.
//
//ecolint:hotpath counts the read in a plain field; spans only when traced
func (r *Reader) finishReadLocked(sp *telemetry.Span, result string, attempts int) {
	r.reads.count(result == readOK, attempts)
	if sp != nil {
		//ecolint:ignore hotalloc only a traced read has a span
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
// the given drive voltage — the Fig. 12 measurement procedure. The probe
// links use the channel's default reflection order whatever cfg.MaxOrder
// says, so a fleet that builds its links at order 1 is handed a range its
// own links cannot all power.
func MaxPowerUpRange(cfg Config, voltage float64) (float64, error) {
	if voltage <= 0 || voltage > MaxDriveVoltage {
		return 0, fmt.Errorf("reader: voltage %g V outside (0, %g]", voltage, MaxDriveVoltage)
	}
	s := cfg.Structure
	if s == nil {
		return 0, errors.New("reader: nil structure")
	}
	axisMax := s.MaxRangeAxis()
	powersUp := PowerUpTest(s, voltage)
	// Binary search the farthest position that still activates.
	probe := func(d float64) bool { return powersUp(cfg.TXPosition, probePosition(s, d)) }
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

// PowerUpTest returns the power-up predicate of structure s at the given
// drive voltage: whether a capsule at dst activates when a reader at tx
// drives the carrier through the prism. The HRA boost applies before the
// threshold comparison, exactly as in the node's Excite path.
func PowerUpTest(s *geometry.Structure, voltage float64) func(tx, dst geometry.Vec3) bool {
	harv := energy.DefaultHarvester()
	hraGain := physics.PaperHRA().Gain(s.Material.WaveSpeed(), physics.CarrierHz)
	return func(tx, dst geometry.Vec3) bool {
		ch, err := channel.New(linkConfig(s, tx, dst, 0, 0))
		if err != nil {
			return false
		}
		return harv.CanActivate(voltage * ch.PathGain() * DefaultPZTCoupling * hraGain)
	}
}

// linkConfig is the channel of the link from a reader at tx to a capsule at
// dst: the operating-point carrier injected through the PLA prism. A zero
// maxOrder keeps the channel's default reflection order.
func linkConfig(s *geometry.Structure, tx, dst geometry.Vec3, seed int64, maxOrder int) channel.Config {
	return channel.Config{
		Structure:        s,
		Source:           tx,
		Destination:      dst,
		CarrierFrequency: physics.CarrierHz,
		PrismAngle:       units.Deg2Rad(physics.PrismAngleDeg),
		Seed:             seed,
		MaxOrder:         maxOrder,
	}
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
