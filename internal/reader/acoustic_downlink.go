package reader

import (
	"fmt"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/coding"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/node"
	"ecocapsule/internal/phy"
	"ecocapsule/internal/protocol"
)

// The acoustic downlink: AcousticBroadcast renders one command frame as
// the PIE-over-FSK drive waveform (§3.3), pushes it through every
// deployed capsule's individual multipath channel, and lets each capsule's
// envelope detector + timer-interrupt decoder recover the bits before the
// MCU state machine consumes the packet. Together with AcousticReadRound
// this closes the loop at waveform level in both directions.

// BroadcastOutcome summarises a waveform-level command delivery.
type BroadcastOutcome struct {
	// Delivered counts capsules whose demodulated frame parsed cleanly.
	Delivered int
	// Corrupted counts capsules that heard something undecodable.
	Corrupted int
	// Unpowered counts capsules whose MCU was down.
	Unpowered int
	// Replies collects the uplink frames the packet solicited; each owns
	// its Data.
	Replies []protocol.UplinkFrame
}

// AcousticBroadcast delivers p to every deployed capsule through the
// physical pipeline.
func (r *Reader) AcousticBroadcast(p protocol.Packet, cfg AcousticConfig) (BroadcastOutcome, error) {
	if cfg.SampleRate == 0 {
		cfg = DefaultAcousticConfig()
	}
	r.mu.Lock()
	// The capsules in deploy order, each with its channel.
	capsules := make([]link, len(r.nodes))
	for i, n := range r.nodes {
		l := r.byHandle.find(n.Handle())
		if _, err := r.channelLocked(l); err != nil {
			r.mu.Unlock()
			return BroadcastOutcome{}, err
		}
		capsules[i] = *l
	}
	var tuneCh *channel.Channel
	if target := r.byHandle.find(p.Target); target != nil {
		tuneCh = target.ch
	}
	envFn := r.env
	mat := r.cfg.Structure.Material
	r.mu.Unlock()

	// Render the drive waveform once (the wall hears a single broadcast).
	tx := phy.NewDownlinkTX(cfg.SampleRate, mat)
	if cfg.DownlinkSymbolScale > 0 && cfg.DownlinkSymbolScale != 1 {
		tx.PIE.PW *= cfg.DownlinkSymbolScale
		tx.PIE.HighZero *= cfg.DownlinkSymbolScale
		tx.PIE.HighOne *= cfg.DownlinkSymbolScale
	}
	if cfg.AutoTune && p.Target != protocol.Broadcast {
		// §3.5(2): fine-tune the carrier to the addressed node's channel
		// so the high edges land outside its multipath fades. The FSK low
		// tone keeps its relative offset.
		if tuneCh != nil {
			tuned, _ := tuneCh.TuneCarrier(10e3, 500)
			tx.OffResonantFreq = tuned * tx.OffResonantFreq / tx.ResonantFreq
			tx.ResonantFreq = tuned
		}
	}
	bits := p.Bits()
	wave, err := tx.Modulate(bits)
	if err != nil {
		return BroadcastOutcome{}, fmt.Errorf("reader: downlink modulation: %w", err)
	}

	var out BroadcastOutcome
	for _, d := range capsules {
		n := d.n
		rxWave := d.ch.Transmit(wave)
		// AGC: normalise the per-node capture.
		if peak := dsp.MaxAbs(rxWave); peak > 0 {
			scale := 1.0 / peak
			for i := range rxWave {
				rxWave[i] *= scale
			}
		}
		if cfg.NoiseSigma > 0 {
			dsp.NewNoiseSource(int64(n.Handle())+31).AddAWGN(rxWave, cfg.NoiseSigma)
		}
		rx := phy.NewNodeRX(cfg.SampleRate)
		rx.PIE = tx.PIE // the MCU timer expects the broadcast timing
		gotBits, err := rx.Demodulate(rxWave)
		if err != nil {
			out.Corrupted++
			continue
		}
		if len(gotBits) > len(bits) {
			gotBits = gotBits[:len(bits)]
		}
		frame := coding.BitsToBytes(gotBits)
		parsed, err := protocol.Unmarshal(frame)
		if err != nil {
			out.Corrupted++
			continue
		}
		reply, ok, err := n.HandleDownlink(parsed, envFn(n.Position()), nil)
		switch err {
		case nil:
			out.Delivered++
			if ok {
				out.Replies = append(out.Replies, reply)
			}
		case node.ErrNotPowered:
			out.Unpowered++
		case node.ErrNotForMe:
			out.Delivered++ // heard correctly, just not addressed
		default:
			out.Corrupted++
		}
	}
	return out, nil
}
