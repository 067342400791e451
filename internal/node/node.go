// Package node assembles a complete EcoCapsule (§4): the stressless resin
// shell, the Helmholtz resonator array in front of the receiving PZT, the
// energy harvester, the MCU command state machine that decodes PIE
// downlinks, and the sensor bay. A Node lives at a position inside a
// structure; the simulation drives it with received waveform amplitudes and
// downlink packets and collects its backscattered uplink frames.
package node

//ecolint:deterministic

import (
	"errors"
	"fmt"
	"sync"

	"ecocapsule/internal/energy"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/units"
)

// State is the MCU power/protocol state.
type State int

const (
	// Dormant: harvesting, below the activation threshold.
	Dormant State = iota
	// ColdStarting: charging the storage capacitor toward boot.
	ColdStarting
	// Standby: MCU up in LPM3, listening for downlink commands.
	Standby
	// Arbitrating: inside an inventory round with a live slot counter.
	Arbitrating
	// Replying: driving the impedance switch with an uplink frame.
	Replying
)

func (s State) String() string {
	switch s {
	case Dormant:
		return "dormant"
	case ColdStarting:
		return "cold-starting"
	case Standby:
		return "standby"
	case Arbitrating:
		return "arbitrating"
	case Replying:
		return "replying"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config parameterises a node.
type Config struct {
	// Handle is the node's 16-bit identity.
	Handle uint16
	// Position inside the host structure (m).
	Position geometry.Vec3
	// Shell (defaults to the resin prototype).
	Shell physics.Shell
	// HRA (defaults to the paper geometry).
	HRA physics.HRA
	// Harvester (defaults to the published prototype).
	Harvester energy.Harvester
	// MCU power model.
	MCU energy.MCUPower
	// Seed drives the slotter and sensor noise.
	Seed int64
}

// Node is one simulated EcoCapsule.
type Node struct {
	mu sync.Mutex

	cfg     Config
	state   State
	slotter *protocol.Slotter
	budget  energy.Budget

	// byType holds the attached payloads indexed by type byte; slot 0
	// and unattached types are nil.
	byType [sensors.MaxType + 1]sensors.Sensor

	// vin is the current PZT amplitude delivered by the channel (volts),
	// including the HRA gain.
	//
	//ecolint:unit v
	vin float64
	// chargeProgress tracks cold-start progress in seconds of accumulated
	// charging; coldStartNeed is the target from ColdStartTime.
	//
	//ecolint:unit s
	chargeProgress, coldStartNeed float64

	// stats
	framesSent   int
	cmdsDecoded  int
	lastSlotDraw int
}

// defaultShell is the resin prototype shell of every node configured
// without one. Its Material is shared by all of them: a Material holds only
// values and nothing writes through Shell.Material, so one resin serves a
// whole fleet instead of one copy per capsule.
var defaultShell = physics.ResinShell()

// New constructs a node with defaults filled in.
func New(cfg Config) *Node {
	if cfg.Shell == (physics.Shell{}) {
		cfg.Shell = defaultShell
	}
	if cfg.HRA.Cells == 0 {
		cfg.HRA = physics.PaperHRA()
	}
	if cfg.Harvester == (energy.Harvester{}) {
		cfg.Harvester = energy.DefaultHarvester()
	}
	if cfg.MCU == (energy.MCUPower{}) {
		cfg.MCU = energy.DefaultMCUPower()
	}
	n := &Node{
		cfg:     cfg,
		state:   Dormant,
		slotter: protocol.NewSlotter(cfg.Seed),
		budget:  energy.Budget{Harvester: cfg.Harvester, MCU: cfg.MCU},
	}
	n.AttachSensor(sensors.NewTempHumidity(cfg.Seed + 1))
	n.AttachSensor(sensors.NewStrain(cfg.Seed + 2))
	n.AttachSensor(sensors.NewAccelerometer(cfg.Seed + 3))
	return n
}

// Handle returns the node identity.
func (n *Node) Handle() uint16 { return n.cfg.Handle }

// Position returns the node's location in the structure.
func (n *Node) Position() geometry.Vec3 { return n.cfg.Position }

// State returns the current MCU state.
func (n *Node) State() State {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// AttachSensor registers (or replaces) a sensor payload. It panics on a
// type outside the sensors type list.
func (n *Node) AttachSensor(s sensors.Sensor) {
	t := s.Type()
	if t == 0 || t > sensors.MaxType {
		panic(fmt.Sprintf("node: cannot attach a sensor of unknown type %v", t))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.byType[t] = s
}

// Sensors returns the attached payloads in type order — the hook the
// fault layer uses to wrap them (e.g. with a stuck-at fault).
func (n *Node) Sensors() []sensors.Sensor {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]sensors.Sensor, 0, len(n.byType))
	for _, s := range n.byType {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// EmbedCheck verifies the shell survives the embedment depth in the host
// concrete (eq. 4). depth is metres of concrete head above the node.
//
//ecolint:unit depth m
func (n *Node) EmbedCheck(concreteDensity, depth float64) error {
	return n.cfg.Shell.StressCheck(concreteDensity, depth)
}

// Excite updates the node's incident PZT amplitude (volts, before the HRA)
// at carrier frequency f in a medium with S-wave speed cs, and advances the
// power state machine by dt seconds.
//
//ecolint:unit vIncident v
//ecolint:unit f hz
//ecolint:unit cs m/s
//ecolint:unit dt s
func (n *Node) Excite(vIncident, f, cs, dt float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.exciteLocked(vIncident, f, cs, dt)
}

// ChargeFor holds the node under the reader's continuous body wave — a
// constant incident amplitude at the operating carrier (physics.CarrierHz)
// — for duration seconds, in 1 ms ticks (at least one). It is exactly
// equivalent to calling Excite once per tick, but under one lock
// acquisition and with an early exit once a tick changes neither state nor
// charge progress: with constant inputs the machine is then at a fixpoint
// and the remaining ticks are no-ops. Fleet-scale charging leans on this —
// a powered-or-hopeless capsule costs O(1) instead of O(ticks).
//
//ecolint:unit vIncident v
//ecolint:unit cs m/s
//ecolint:unit duration s
func (n *Node) ChargeFor(vIncident, cs, duration float64) {
	const dt = 1 * units.MS
	steps := max(int(duration/dt), 1)
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < steps; i++ {
		prevState, prevProgress := n.state, n.chargeProgress
		n.exciteLocked(vIncident, physics.CarrierHz, cs, dt)
		if n.state == prevState && n.chargeProgress == prevProgress {
			return
		}
	}
}

// exciteLocked is one Excite tick. Caller holds the lock.
func (n *Node) exciteLocked(vIncident, f, cs, dt float64) {
	n.vin = vIncident * n.cfg.HRA.Gain(cs, f)
	switch n.state {
	case Dormant:
		if n.cfg.Harvester.CanActivate(n.vin) {
			need, err := n.cfg.Harvester.ColdStartTime(n.vin)
			if err == nil {
				n.state = ColdStarting
				n.coldStartNeed = need
				n.chargeProgress = 0
			}
		}
	case ColdStarting:
		if !n.cfg.Harvester.CanActivate(n.vin) {
			// Excitation lost: the capacitor bleeds and the boot aborts.
			n.state = Dormant
			n.chargeProgress = 0
			return
		}
		n.chargeProgress += dt
		if n.chargeProgress >= n.coldStartNeed {
			n.state = Standby
		}
	default:
		// Running states: losing power drops the node back to dormant.
		if !n.budget.Sustainable(n.vin, 0) {
			n.state = Dormant
			n.slotter.EndRound()
			n.chargeProgress = 0
		}
	}
}

// PoweredUp reports whether the MCU is running (standby or beyond).
func (n *Node) PoweredUp() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state == Standby || n.state == Arbitrating || n.state == Replying
}

// Vin returns the current (post-HRA) PZT amplitude.
//
//ecolint:unit return v
func (n *Node) Vin() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.vin
}

// Errors returned by HandleDownlink.
var (
	ErrNotPowered = errors.New("node: MCU not powered up")
	ErrNotForMe   = errors.New("node: packet addressed to another node")
	ErrNoSensor   = errors.New("node: no such sensor attached")
)

// HandleDownlink feeds one decoded downlink packet to the MCU state
// machine against the given environment snapshot. It returns the uplink
// frame the node backscatters in response, with ok false when the node
// stays silent this slot. A sensor reply's Data is the reading appended to
// buf, so the caller owns it; an arbitration reply carries no Data.
//
//ecolint:hotpath a sensor reply lands in the caller's buffer
func (n *Node) HandleDownlink(p protocol.Packet, env sensors.Environment, buf []byte) (reply protocol.UplinkFrame, ok bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == Dormant || n.state == ColdStarting {
		return reply, false, ErrNotPowered
	}
	if p.Target != protocol.Broadcast && p.Target != n.cfg.Handle {
		return reply, false, ErrNotForMe
	}
	n.cmdsDecoded++
	switch p.Cmd {
	case protocol.CmdQuery:
		q := 0
		if len(p.Payload) > 0 {
			q = int(p.Payload[0])
		}
		n.lastSlotDraw = n.slotter.BeginRound(q)
		n.state = Arbitrating
		return n.maybeReplyLocked()
	case protocol.CmdQueryRep:
		if n.state != Arbitrating {
			return reply, false, nil
		}
		n.slotter.Advance()
		return n.maybeReplyLocked()
	case protocol.CmdAck:
		if n.state == Replying {
			n.slotter.EndRound()
			n.state = Standby
		}
		return reply, false, nil
	case protocol.CmdReadSensor:
		if len(p.Payload) < 1 {
			return reply, false, ErrNoSensor
		}
		st := sensors.SensorType(p.Payload[0])
		if st > sensors.MaxType || n.byType[st] == nil {
			return reply, false, ErrNoSensor
		}
		s := n.byType[st]
		n.framesSent++
		reply = protocol.UplinkFrame{Handle: n.cfg.Handle, Kind: byte(st), Data: s.AppendSample(buf, env)}
		return reply, true, nil
	case protocol.CmdSleep:
		n.slotter.EndRound()
		n.state = Standby
		return reply, false, nil
	case protocol.CmdNak:
		// The reader could not decode our reply: re-arm arbitration with
		// the slot counter untouched, so the next QueryRep re-solicits it.
		if n.state == Replying {
			n.state = Arbitrating
		}
		return reply, false, nil
	default:
		//ecolint:ignore hotalloc an unsupported command is a protocol error, never a survey read
		return reply, false, fmt.Errorf("node: unsupported command %v", p.Cmd)
	}
}

// maybeReplyLocked emits the RN16-style arbitration reply when the slot
// counter reaches zero. Caller holds the lock.
func (n *Node) maybeReplyLocked() (protocol.UplinkFrame, bool, error) {
	if !n.slotter.ShouldReply() {
		return protocol.UplinkFrame{}, false, nil
	}
	n.state = Replying
	n.framesSent++
	return protocol.UplinkFrame{Handle: n.cfg.Handle, Kind: 0x00}, true, nil // arbitration reply
}

// Stats reports the node's lifetime counters.
func (n *Node) Stats() (framesSent, cmdsDecoded int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.framesSent, n.cmdsDecoded
}

// PowerDraw returns the node's current power consumption in watts based on
// its state and the uplink bitrate.
//
//ecolint:unit return w
func (n *Node) PowerDraw(bitrate float64) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.state {
	case Dormant, ColdStarting:
		return n.cfg.MCU.SleepPower
	case Standby, Arbitrating:
		return n.cfg.MCU.PowerAt(0)
	case Replying:
		return n.cfg.MCU.PowerAt(bitrate)
	default:
		return 0
	}
}
