// Package waveform synthesises the continuous signals of the EcoCapsule
// link: the continuous body wave (CBW), PIE symbols rendered either as
// classic on/off keying or as the paper's dual-frequency FSK (§3.3), the
// PZT ring effect (inertial tailing, Fig. 7), and the backscatter square
// modulation of the uplink (§3.4).
package waveform

import (
	"math"

	"ecocapsule/internal/coding"
	"ecocapsule/internal/physics"
)

// Synth renders pass-band waveforms at a fixed sample rate.
type Synth struct {
	// SampleRate in Hz. The evaluation's oscilloscope samples at 1 MS/s.
	SampleRate float64
}

// NewSynth returns a synthesiser at the given sample rate.
func NewSynth(fs float64) *Synth { return &Synth{SampleRate: fs} }

// Samples converts a duration to a sample count (floor, ≥0).
func (s *Synth) Samples(d float64) int {
	n := int(d * s.SampleRate)
	if n < 0 {
		return 0
	}
	return n
}

// Tone renders amp·sin(2πft) for the given duration starting at the given
// phase, returning the samples and the phase at the end (for continuity
// across segments).
func (s *Synth) Tone(f, amp, dur, phase float64) ([]float64, float64) {
	n := s.Samples(dur)
	out := make([]float64, n)
	w := 2 * math.Pi * f / s.SampleRate
	ph := phase
	for i := range out {
		out[i] = amp * math.Sin(ph)
		ph += w
	}
	return out, math.Mod(ph, 2*math.Pi)
}

// CBW renders the continuous body wave: a single-tone carrier of the given
// duration, the reader's charging signal (§3.2).
func (s *Synth) CBW(f, amp, dur float64) []float64 {
	out, _ := s.Tone(f, amp, dur, 0)
	return out
}

// RingEffect models the PZT inertia (§3.3): when the drive stops, the
// transducer keeps oscillating with an exponentially decaying envelope of
// time constant tau. AppendRingTail extends the waveform with such a tail
// continuing the final oscillation.
type RingEffect struct {
	// Tau is the decay time constant in seconds. Fig. 7a shows a tail
	// consuming ≈0.3 ms to dampen; tau ≈ 80 µs reproduces that.
	Tau float64
	// Frequency of the residual oscillation (the drive frequency).
	Frequency float64
}

// DefaultRing returns the Fig. 7a tail behaviour at the operating-point
// carrier.
func DefaultRing() RingEffect { return RingEffect{Tau: 80e-6, Frequency: physics.CarrierHz} }

// Tail renders the decaying oscillation that follows a drive segment of
// amplitude amp ending at the given phase, for the given duration.
func (r RingEffect) Tail(s *Synth, amp, phase, dur float64) []float64 {
	n := s.Samples(dur)
	out := make([]float64, n)
	w := 2 * math.Pi * r.Frequency / s.SampleRate
	ph := phase
	for i := range out {
		t := float64(i) / s.SampleRate
		out[i] = amp * math.Exp(-t/r.Tau) * math.Sin(ph)
		ph += w
	}
	return out
}

// SettleTime returns how long the tail takes to fall below the given
// fraction of the drive amplitude.
func (r RingEffect) SettleTime(fraction float64) float64 {
	if fraction <= 0 || fraction >= 1 {
		return 0
	}
	return -r.Tau * math.Log(fraction)
}

// PIEWaveformOOK renders PIE bits as classic on/off keying at carrier fHigh:
// the transducer is driven during high edges and switched off during low
// pulses — but the ring effect keeps it oscillating, bleeding energy into
// the low edge exactly as Fig. 7a shows.
func (s *Synth) PIEWaveformOOK(cfg coding.PIEConfig, bits []byte, fHigh, amp float64, ring RingEffect) ([]float64, error) {
	edges, err := cfg.Encode(bits)
	if err != nil {
		return nil, err
	}
	var out []float64
	phase := 0.0
	for _, e := range edges {
		if e.High {
			var seg []float64
			seg, phase = s.Tone(fHigh, amp, e.Duration, phase)
			out = append(out, seg...)
			continue
		}
		// Low edge: drive off, ring tail decays over the pulse.
		tail := ring.Tail(s, amp, phase, e.Duration)
		out = append(out, tail...)
		phase = math.Mod(phase+2*math.Pi*ring.Frequency*e.Duration/1, 2*math.Pi)
		// Phase bookkeeping: keep continuity with the tail oscillation.
		phase = math.Mod(phase, 2*math.Pi)
	}
	return out, nil
}

// PIEWaveformFSK renders PIE bits with the paper's anti-ring trick (§3.3):
// high edges at the resonant frequency fHigh, low edges at the off-resonant
// fLow — the transducer never stops, so there is no inertial tail, and the
// concrete itself suppresses the off-resonant segments. offResonantGain is
// the relative amplitude the concrete lets through at fLow (from
// material.FrequencyResponse ratios).
func (s *Synth) PIEWaveformFSK(cfg coding.PIEConfig, bits []byte, fHigh, fLow, amp, offResonantGain float64) ([]float64, error) {
	edges, err := cfg.Encode(bits)
	if err != nil {
		return nil, err
	}
	var out []float64
	phase := 0.0
	for _, e := range edges {
		f, a := fHigh, amp
		if !e.High {
			f, a = fLow, amp*offResonantGain
		}
		var seg []float64
		seg, phase = s.Tone(f, a, e.Duration, phase)
		out = append(out, seg...)
	}
	return out, nil
}

// BackscatterModulate applies the node's impedance switching to an incident
// carrier: when the switch state is reflective the node re-radiates
// reflectGain of the incident wave, when absorptive it re-radiates
// absorbGain (≈0). states holds one boolean per half-symbol (true =
// reflective); half-symbol h spans samples [int(h·halfSamples),
// int((h+1)·halfSamples)), the grid the reader's matched filter integrates
// on, so a fractional halfSamples does not drift the frame against it. The
// last state holds to the end of incident. The returned waveform is the
// backscattered component only.
func (s *Synth) BackscatterModulate(incident []float64, states []bool, halfSamples, reflectGain, absorbGain float64) []float64 {
	return s.BackscatterModulateInto(nil, incident, states, halfSamples, reflectGain, absorbGain)
}

// BackscatterModulateInto is BackscatterModulate writing into dst's
// storage when its capacity holds len(incident) samples (a new slice
// otherwise); it returns the len(incident) result.
func (s *Synth) BackscatterModulateInto(dst, incident []float64, states []bool, halfSamples, reflectGain, absorbGain float64) []float64 {
	if cap(dst) < len(incident) {
		dst = make([]float64, len(incident))
	}
	out := dst[:len(incident)]
	if len(states) == 0 {
		clear(out)
		return out
	}
	halfSamples = max(halfSamples, 1)
	h, end := 0, int(halfSamples)
	for i := range incident {
		for i >= end && h < len(states)-1 {
			h++
			end = int(float64(h+1) * halfSamples)
		}
		g := absorbGain
		if states[h] {
			g = reflectGain
		}
		out[i] = incident[i] * g
	}
	return out
}

// FM0States converts FM0 half-symbol levels (±1) to impedance-switch
// states: +1 → reflective, −1 → absorptive.
func FM0States(halves []float64) []bool {
	states := make([]bool, len(halves))
	for i, v := range halves {
		states[i] = v > 0
	}
	return states
}

// SquareSubcarrier renders the node's BLF square wave itself (used for the
// Fig. 22-style raw backscatter burst): alternating reflect/absorb at blf
// Hz for dur seconds against a carrier of frequency fc and amplitude amp.
func (s *Synth) SquareSubcarrier(fc, blf, amp, dur float64) []float64 {
	n := s.Samples(dur)
	out := make([]float64, n)
	w := 2 * math.Pi * fc / s.SampleRate
	for i := range out {
		t := float64(i) / s.SampleRate
		level := 0.0
		if math.Mod(t*blf, 1) < 0.5 {
			level = 1
		}
		out[i] = amp * level * math.Sin(w*float64(i))
	}
	return out
}
