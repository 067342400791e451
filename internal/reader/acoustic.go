package reader

import (
	"errors"
	"fmt"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/coding"
	"ecocapsule/internal/conc"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/phy"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/units"
	"ecocapsule/internal/waveform"
)

// The acoustic read path: unlike ReadSensor, which short-circuits the
// waveform layer, AcousticReadRound carries the nodes' replies through the
// full physical pipeline — FM0 encoding, impedance-switch modulation of
// the incident CBW, the multipath concrete channel with CBW leakage, and
// the reader's synchronise → down-convert → ML-decode chain (§5.1). It is
// the integration point that proves the stack end-to-end.

// AcousticConfig tunes the waveform-level link.
type AcousticConfig struct {
	// SampleRate of the simulated capture (default 1 MS/s, the
	// oscilloscope rate of §5.1).
	SampleRate float64
	// UplinkBitrate in bit/s (default 1 kbps, the evaluation default).
	UplinkBitrate float64
	// LeakageGain is the CBW self-interference amplitude at the RX
	// relative to the backscatter (default 0.4 — the §3.4 "10× stronger"
	// power statement at our normalisation).
	LeakageGain float64
	// NoiseSigma is the capture noise standard deviation.
	NoiseSigma float64
	// DownlinkSymbolScale stretches the PIE symbol durations (1 = the
	// default 1 kbps timing). Long-range links whose reverberation
	// outlasts the 0.5 ms low edge need slower symbols — the acoustic
	// analogue of lowering the data rate on a dispersive radio channel.
	DownlinkSymbolScale float64
	// AutoTune applies the §3.5(2) carrier fine-tuning for addressed
	// packets: the TX sweeps around the nominal carrier and picks the
	// frequency the target's channel passes best, pulling links out of
	// multipath fades.
	AutoTune bool
}

// DefaultAcousticConfig returns the evaluation defaults.
func DefaultAcousticConfig() AcousticConfig {
	return AcousticConfig{
		SampleRate:          1 * units.MHz,
		UplinkBitrate:       1000,
		LeakageGain:         0.4,
		NoiseSigma:          0.01,
		DownlinkSymbolScale: 1,
	}
}

// ErrAcousticDecode wraps failures of the waveform-level pipeline.
var ErrAcousticDecode = errors.New("reader: acoustic decode failed")

// parseUplinkBits reframes decoded payload bits, validates the sender, and
// decodes the sensor values.
func parseUplinkBits(bits []byte, handle uint16) ([]float64, error) {
	frame := coding.BitsToBytes(bits)
	parsed, err := protocol.UnmarshalUplink(frame)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAcousticDecode, err)
	}
	if parsed.Handle != handle {
		return nil, fmt.Errorf("%w: frame from %#04x, expected %#04x",
			ErrAcousticDecode, parsed.Handle, handle)
	}
	vals, err := sensors.Decode(sensors.SensorType(parsed.Kind), parsed.Data)
	if err != nil {
		return nil, err
	}
	return vals[:], nil
}

// acousticSlotGuard is the inter-slot margin of a batched round beyond the
// link's own reverberation tail: the 1 ms lead-in before each frame plus
// settling headroom. The tail itself is measured per link from the channel's
// last arrival — concrete links disperse over tens of milliseconds, and a
// slot that clips the tail both leaks ISI into the next slot and starves
// the receiver's window statistics of the frame's own multipath energy.
const acousticSlotGuard = 8e-3

// AcousticReadResult is one node's outcome of a batched acoustic round.
type AcousticReadResult struct {
	Handle uint16
	Values []float64
	Err    error
}

// AcousticReadRound reads the same sensor from several nodes in one
// waveform-level TDMA round (§3.4): every node backscatters its frame in
// its own time slot against one continuous incident carrier, the reader
// captures the entire round — backscatter, multipath tails, and CBW
// leakage summed — and decodes all slots through one batched front-end
// pass (phy.DemodulateSlots), instead of re-running carrier estimation and
// down-conversion per node. Results are positionally aligned with handles;
// a handle repeated within the round gets one slot, and every repeat after
// the first an error result.
//
// The per-link modulate → transmit legs are independent (each link owns
// its channel and noise source), so they fan out over conc.For, one item
// per slot; their outputs are summed into the capture
// serially in slot order, so the capture is bit-identical at any
// GOMAXPROCS.
func (r *Reader) AcousticReadRound(handles []uint16, st sensors.SensorType, cfg AcousticConfig) []AcousticReadResult {
	out := make([]AcousticReadResult, len(handles))
	if len(handles) == 0 {
		return out
	}
	if cfg.SampleRate == 0 {
		cfg = DefaultAcousticConfig()
	}

	type slotPlan struct {
		result  int              // index into out
		ch      *channel.Channel // the node's uplink channel
		payload []byte           // framed uplink bits (no pilot)
		bits    []byte           // pilot ‖ payload
	}
	var plans []slotPlan
	// The capture noise seed chains every laid-out handle in slot order.
	seed := int64(7)

	r.mu.Lock()
	seen := make(map[uint16]bool, len(handles))
	for i, h := range handles {
		out[i].Handle = h
		if seen[h] {
			out[i].Err = fmt.Errorf("reader: node %#04x repeated in one round", h)
			continue
		}
		seen[h] = true
		target, known := r.byHandle.find(h)
		if !known {
			out[i].Err = fmt.Errorf("reader: unknown node %#04x", h)
			continue
		}
		up, ok, err := target.n.HandleDownlink(protocol.Packet{
			Cmd: protocol.CmdReadSensor, Target: h, Payload: []byte{byte(st)},
		}, r.env(target.n.Position()), nil)
		if err != nil {
			out[i].Err = err
			continue
		}
		if !ok {
			out[i].Err = errNodeSilent
			continue
		}
		payload := up.Bits()
		plans = append(plans, slotPlan{result: i, ch: target.ch, payload: payload, bits: phy.PrependPilot(payload)})
		seed = seed*31 + int64(h)
	}
	r.mu.Unlock()
	if len(plans) == 0 {
		return out
	}

	// Lay the slots out back to back: each slot holds its frame plus that
	// link's full reverberation tail (last image-source arrival) plus the
	// fixed guard margin, so no slot clips its own multipath or smears into
	// the next node's window.
	syn := waveform.NewSynth(cfg.SampleRate)
	btx := phy.NewBackscatterTX(cfg.SampleRate)
	btx.Bitrate = cfg.UplinkBitrate
	lead := syn.Samples(1e-3)
	slots := make([]phy.Slot, len(plans))
	total := 0
	for s, p := range plans {
		frameDur := float64(len(p.bits)) / btx.Bitrate
		tail := 0.0
		if arr := p.ch.Arrivals(); len(arr) > 0 {
			tail = arr[len(arr)-1].Delay
		}
		slots[s] = phy.Slot{
			Start: total,
			Len:   syn.Samples(frameDur + tail + acousticSlotGuard),
			NBits: len(p.payload),
		}
		total += slots[s].Len
	}

	// One incident carrier spans the round; the CBW leakage couples into
	// the RX across the whole capture at the configured coupling gain.
	incident := r.roundCarrier(syn, total)
	ys := make([][]float64, len(plans))
	errs := make([]error, len(plans))
	conc.For(len(plans), func(s int) {
		bs, err := btx.Modulate(plans[s].bits, incident[slots[s].Start+lead:])
		if err != nil {
			errs[s] = err
			return
		}
		ys[s] = plans[s].ch.Transmit(bs)
	})
	capture := make([]float64, total)
	if cfg.LeakageGain > 0 {
		for i := range capture {
			capture[i] = cfg.LeakageGain * incident[i]
		}
	}
	for s, p := range plans {
		if errs[s] != nil {
			out[p.result].Err = fmt.Errorf("%w: %v", ErrAcousticDecode, errs[s])
			continue
		}
		base := slots[s].Start + lead
		for i, v := range ys[s] {
			if base+i >= len(capture) {
				break
			}
			capture[base+i] += v
		}
	}
	// Round-wide AGC, so the decode chain sees a healthy amplitude
	// regardless of absolute path gain, then the capture noise.
	if peak := dsp.MaxAbs(capture); peak > 0 {
		scale := 1.0 / peak
		for i := range capture {
			capture[i] *= scale
		}
	}
	if cfg.NoiseSigma > 0 {
		dsp.NewNoiseSource(seed).AddAWGN(capture, cfg.NoiseSigma)
	}

	rrx := phy.NewReaderRX(cfg.SampleRate)
	rrx.Bitrate = cfg.UplinkBitrate
	decoded := rrx.DemodulateSlots(capture, slots)
	for s, p := range plans {
		if out[p.result].Err != nil {
			continue
		}
		if decoded[s].Err != nil {
			out[p.result].Err = fmt.Errorf("%w: %v", ErrAcousticDecode, decoded[s].Err)
			continue
		}
		out[p.result].Values, out[p.result].Err = parseUplinkBits(decoded[s].Bits, handles[p.result])
	}
	return out
}

// roundCarrier returns the incident CBW of a round that captures total
// samples at the synth's rate: 2 ms longer than the capture, so every
// slot's frame is covered. The previous round's carrier is reused when the
// rate and length match — a re-read round of fewer slots renders a new one,
// and the next full round renders it again. The slice is never written
// after it is built, so concurrent rounds may share it.
func (r *Reader) roundCarrier(syn *waveform.Synth, total int) []float64 {
	fs := syn.SampleRate
	r.mu.Lock()
	c := r.carrier
	reuse := c.fs == fs && c.total == total
	r.mu.Unlock()
	if reuse {
		return c.samples
	}
	c = roundCBW{fs: fs, total: total, samples: syn.CBW(physics.CarrierHz, 1.0, float64(total)/fs+2e-3)}
	r.mu.Lock()
	r.carrier = c
	r.mu.Unlock()
	return c.samples
}

// roundCBW is a rendered round carrier and the shape it was built for.
type roundCBW struct {
	//ecolint:unit hz
	fs      float64
	total   int
	samples []float64
}
