// Package faultinject is the deterministic fault-injection layer of the
// EcoCapsule stack. A seeded Plan declares the failure regime — frame loss
// and bit corruption on the acoustic link, capsule brown-outs and mutes,
// dead reader stations, stuck sensors, and dropped monitoring connections —
// and an Injector turns the plan into reproducible per-event decisions.
//
// The consumers (reader, fleet, shmwire) each define a small interface at
// their point of use; the Injector implements all of them, so a single plan
// drives the whole pipeline without forking any hot path.
//
// Determinism is per capsule: every draw is keyrand.Key of (plan seed,
// capsule handle, that handle's hook-call ordinal, draw kind, sub-index),
// so the same plan reproduces the same failures byte for byte whenever each
// capsule sees the same sequence of hook calls — in whatever order the
// worker pool interleaves different capsules. Flight-recorder events from
// different capsules land in arrival order, which is not part of it.
package faultinject

//ecolint:deterministic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ecocapsule/internal/keyrand"
	"ecocapsule/internal/telemetry"
)

// Plan is a declarative, seeded fault scenario. The zero value injects
// nothing; probabilities are in [0, 1].
type Plan struct {
	// Seed drives every random decision the injector makes.
	Seed int64

	// FrameLossProb is the probability that a whole frame (downlink or
	// uplink) is lost in transit — the BER-waterfall regime of Fig. 15
	// where sync is never acquired.
	FrameLossProb float64
	// FrameCorruptProb is the probability that a surviving frame takes a
	// short burst of bit flips (1–4 bits), the CRC-detectable case.
	FrameCorruptProb float64
	// BitFlipBER applies independent per-bit flips at this rate on top of
	// the burst model, for sweeping the waterfall edge directly.
	BitFlipBER float64

	// DeadStations lists fleet station indices that are offline for the
	// whole scenario (a reader fell off the wall).
	DeadStations []int

	// MutedCapsules lists capsule handles whose uplink never arrives (a
	// failed backscatter switch); the capsule still harvests and decodes.
	MutedCapsules []uint16
	// BrownoutProb is the per-downlink-delivery probability that a capsule
	// browns out mid-inventory and drops back to dormant.
	BrownoutProb float64

	// StuckSensors lists capsule handles whose sensors freeze at their
	// first sampled value (a debonded gauge reporting forever-stale data).
	StuckSensors []uint16

	// ConnDropAfterFrames makes a wrapped monitoring connection fail after
	// this many successful reads (0 = never) — the shmwire reconnect case.
	ConnDropAfterFrames int
}

// Validate checks the plan's probabilities and counts.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"FrameLossProb", p.FrameLossProb},
		{"FrameCorruptProb", p.FrameCorruptProb},
		{"BitFlipBER", p.BitFlipBER},
		{"BrownoutProb", p.BrownoutProb},
	} {
		if !(pr.v >= 0 && pr.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("faultinject: %s = %g outside [0, 1]", pr.name, pr.v)
		}
	}
	if p.ConnDropAfterFrames < 0 {
		return fmt.Errorf("faultinject: ConnDropAfterFrames = %d negative", p.ConnDropAfterFrames)
	}
	for _, s := range p.DeadStations {
		if s < 0 {
			return fmt.Errorf("faultinject: dead station index %d negative", s)
		}
	}
	return nil
}

// Stats counts what the injector actually did — tests assert on these and
// reports annotate degradation with them.
type Stats struct {
	DownlinkDropped   int
	DownlinkCorrupted int
	UplinkDropped     int
	UplinkCorrupted   int
	Brownouts         int
}

// Injector executes a Plan deterministically. All methods are safe for
// concurrent use; see the package doc for what is reproduced.
type Injector struct {
	// plan and the dead/muted/stuck sets are immutable after New.
	plan  Plan
	dead  map[int]bool
	muted map[uint16]bool
	stuck map[uint16]bool
	// calls counts each handle's hook calls, the ordinal in its draw key.
	// Atomic per-handle counters keep concurrent capsules off any shared
	// lock; the mutex is taken only when a fault is recorded.
	calls [1 << 16]atomic.Uint64

	mu sync.Mutex
	//ecolint:guardedby mu
	stats Stats
}

// Draw kinds: each decision within one hook call hashes its own kind.
const (
	drawLoss uint64 = iota + 1
	drawCorrupt
	drawFlips
	drawFlipBit
	drawBER
	drawBrownout
)

// draws is the keyed random source of one hook call.
type draws uint64

// next advances the handle's hook-call ordinal and returns the call's
// source.
func (in *Injector) next(handle uint16) draws {
	n := in.calls[handle].Add(1) - 1
	return draws(keyrand.Key(uint64(in.plan.Seed), uint64(handle), n))
}

// float returns the uniform [0, 1) draw of one decision.
func (d draws) float(kind, sub uint64) float64 {
	return float64(keyrand.Key(uint64(d), kind, sub)>>11) / (1 << 53)
}

// intn returns the uniform [0, n) draw of one decision.
func (d draws) intn(kind, sub uint64, n int) int {
	return int(d.float(kind, sub) * float64(n))
}

// record counts one injected fault in Stats, on the metric and in the
// flight recorder (whose event name is the kind).
func (in *Injector) record(kind string, count func(*Stats), msg string) {
	in.mu.Lock()
	count(&in.stats)
	in.mu.Unlock()
	mInjected.With(kind).Inc()
	telemetry.RecordFlight("faultinject", kind, msg)
}

// New validates the plan and builds its injector.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:  plan,
		dead:  make(map[int]bool, len(plan.DeadStations)),
		muted: make(map[uint16]bool, len(plan.MutedCapsules)),
		stuck: make(map[uint16]bool, len(plan.StuckSensors)),
	}
	for _, s := range plan.DeadStations {
		in.dead[s] = true
	}
	for _, h := range plan.MutedCapsules {
		in.muted[h] = true
	}
	for _, h := range plan.StuckSensors {
		in.stuck[h] = true
	}
	return in, nil
}

// MustNew is New for literal plans in tests and examples; it panics on an
// invalid plan.
func MustNew(plan Plan) *Injector {
	in, err := New(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// Downlink implements the reader's frame-fault hook for reader→capsule
// frames: it returns the (possibly corrupted) frame and whether it arrived
// at all. The returned slice is a copy; the input is never mutated.
func (in *Injector) Downlink(handle uint16, frame []byte) ([]byte, bool) {
	out, delivered, touched := in.next(handle).frame(in.plan, frame)
	if !delivered {
		in.record(kindDownlinkDropped, func(s *Stats) { s.DownlinkDropped++ },
			fmt.Sprintf("frame to capsule 0x%04x lost in the concrete", handle))
	} else if touched {
		in.record(kindDownlinkCorrupted, func(s *Stats) { s.DownlinkCorrupted++ },
			fmt.Sprintf("frame to capsule 0x%04x took bit flips", handle))
	}
	return out, delivered
}

// Uplink implements the reader's frame-fault hook for capsule→reader
// frames. A muted capsule's uplink is always dropped.
func (in *Injector) Uplink(handle uint16, frame []byte) ([]byte, bool) {
	if in.muted[handle] {
		in.record(kindUplinkDropped, func(s *Stats) { s.UplinkDropped++ },
			fmt.Sprintf("capsule 0x%04x is muted", handle))
		return nil, false
	}
	out, delivered, touched := in.next(handle).frame(in.plan, frame)
	if !delivered {
		in.record(kindUplinkDropped, func(s *Stats) { s.UplinkDropped++ },
			fmt.Sprintf("backscatter from capsule 0x%04x never reached the RX", handle))
	} else if touched {
		in.record(kindUplinkCorrupted, func(s *Stats) { s.UplinkCorrupted++ },
			fmt.Sprintf("backscatter from capsule 0x%04x took bit flips", handle))
	}
	return out, delivered
}

// frame applies loss, burst corruption, and BER to one frame.
func (d draws) frame(p Plan, frame []byte) (out []byte, delivered, touched bool) {
	if p.FrameLossProb > 0 && d.float(drawLoss, 0) < p.FrameLossProb {
		return nil, false, false
	}
	out = frame
	if p.FrameCorruptProb > 0 && d.float(drawCorrupt, 0) < p.FrameCorruptProb && len(frame) > 0 {
		out = append([]byte(nil), out...)
		flips := 1 + d.intn(drawFlips, 0, 4)
		for i := 0; i < flips; i++ {
			bit := d.intn(drawFlipBit, uint64(i), len(out)*8)
			out[bit/8] ^= 1 << uint(7-bit%8)
		}
		touched = true
	}
	if p.BitFlipBER > 0 && len(frame) > 0 {
		copied := touched
		for i := 0; i < len(out)*8; i++ {
			if d.float(drawBER, uint64(i)) < p.BitFlipBER {
				if !copied {
					out = append([]byte(nil), out...)
					copied = true
				}
				out[i/8] ^= 1 << uint(7-i%8)
				touched = true
			}
		}
	}
	return out, true, touched
}

// Brownout implements the reader's capsule-fault hook: drawn once per
// downlink delivery, true means the capsule loses power mid-operation.
func (in *Injector) Brownout(handle uint16) bool {
	if in.plan.BrownoutProb <= 0 || in.next(handle).float(drawBrownout, 0) >= in.plan.BrownoutProb {
		return false
	}
	in.record(kindBrownout, func(s *Stats) { s.Brownouts++ },
		fmt.Sprintf("capsule 0x%04x lost its storage charge mid-operation", handle))
	return true
}

// StationDead implements the fleet's station-fault hook.
func (in *Injector) StationDead(station int) bool { return in.dead[station] }

// SensorStuck reports whether a capsule's sensors are planned to freeze.
func (in *Injector) SensorStuck(handle uint16) bool { return in.stuck[handle] }

// Stats returns a snapshot of the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
