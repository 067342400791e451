// Package phy implements the physical-layer modems of the EcoCapsule link:
// the reader's downlink transmitter (PIE over dual-frequency FSK, §3.3),
// the node's envelope-detector receiver, the node's backscatter uplink
// modulator at a shifted BLF (§3.4), and the reader's uplink receive chain
// (carrier estimation → digital down-conversion → matched filtering →
// maximum-likelihood FM0 decoding, §5.1).
package phy

import (
	"errors"
	"fmt"
	"sort"

	"ecocapsule/internal/coding"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/material"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
	"ecocapsule/internal/waveform"
)

// DownlinkModulation selects the low-edge strategy of the PIE transmitter.
type DownlinkModulation int

const (
	// ModulationFSK is the paper's anti-ring scheme: low edges at an
	// off-resonant frequency that the concrete suppresses naturally.
	ModulationFSK DownlinkModulation = iota
	// ModulationOOK is the traditional scheme: the drive is switched off
	// for low edges, leaving the inertial ring tail in the symbol.
	ModulationOOK
)

func (m DownlinkModulation) String() string {
	switch m {
	case ModulationFSK:
		return "FSK"
	case ModulationOOK:
		return "OOK"
	default:
		return fmt.Sprintf("DownlinkModulation(%d)", int(m))
	}
}

// OffResonantHz is the FSK low tone: far enough below the carrier's
// resonance that the concrete suppresses it (§3.3, Fig. 7).
const OffResonantHz = 180 * units.KHz //ecolint:unit hz

// OffResonantGain is the relative amplitude material m passes at the
// off-resonant tone off versus the resonant tone on. A material without a
// resonance model passes 0.3.
//
//ecolint:unit on hz
//ecolint:unit off hz
func OffResonantGain(m *material.Material, on, off float64) float64 {
	if m == nil || m.ResonantFrequency == 0 {
		return 0.3
	}
	resp := m.FrequencyResponse(on)
	if resp <= 0 {
		return 0.3
	}
	return m.FrequencyResponse(off) / resp
}

// DownlinkTX renders downlink frames into pass-band waveforms.
type DownlinkTX struct {
	Synth *waveform.Synth
	PIE   coding.PIEConfig
	// ResonantFreq (high edges) and OffResonantFreq (FSK low edges), Hz.
	//ecolint:unit hz
	ResonantFreq, OffResonantFreq float64
	// Amplitude is the drive amplitude in volts at the PZT.
	//ecolint:unit v
	Amplitude float64
	// Modulation selects FSK (default) or OOK.
	Modulation DownlinkModulation
	// Ring models the PZT inertia for OOK rendering.
	Ring waveform.RingEffect
	// Material determines the off-resonance suppression the concrete
	// applies to the FSK low tone.
	Material *material.Material
}

// NewDownlinkTX returns the evaluation's default transmitter: the
// operating-point carrier as the resonant tone, OffResonantHz as the low
// tone, 1 kbps PIE.
//
//ecolint:unit fs hz
func NewDownlinkTX(fs float64, m *material.Material) *DownlinkTX {
	return &DownlinkTX{
		Synth:           waveform.NewSynth(fs),
		PIE:             coding.DefaultPIE(),
		ResonantFreq:    physics.CarrierHz,
		OffResonantFreq: OffResonantHz,
		Amplitude:       1.0,
		Modulation:      ModulationFSK,
		Ring:            waveform.DefaultRing(),
		Material:        m,
	}
}

// Modulate renders a bit sequence into the pass-band drive waveform.
func (tx *DownlinkTX) Modulate(bits []byte) ([]float64, error) {
	switch tx.Modulation {
	case ModulationFSK:
		return tx.Synth.PIEWaveformFSK(tx.PIE, bits, tx.ResonantFreq,
			tx.OffResonantFreq, tx.Amplitude,
			OffResonantGain(tx.Material, tx.ResonantFreq, tx.OffResonantFreq))
	case ModulationOOK:
		return tx.Synth.PIEWaveformOOK(tx.PIE, bits, tx.ResonantFreq,
			tx.Amplitude, tx.Ring)
	default:
		return nil, fmt.Errorf("phy: unknown modulation %v", tx.Modulation)
	}
}

// NodeRX is the EcoCapsule's downlink demodulator: the voltage multiplier
// reused as an envelope detector, a level shifter binarising the output,
// and the MCU timer measuring intervals between edges (§4.2).
type NodeRX struct {
	//ecolint:unit hz
	SampleRate float64
	// EnvelopeTau is the detector's RC time constant.
	//ecolint:unit s
	EnvelopeTau float64
	// Hysteresis around the adaptive threshold, as a fraction of the
	// envelope swing.
	//ecolint:unit dimensionless
	Hysteresis float64
	PIE        coding.PIEConfig
}

// NewNodeRX returns the default node demodulator.
//
//ecolint:unit fs hz
func NewNodeRX(fs float64) *NodeRX {
	return &NodeRX{
		SampleRate:  fs,
		EnvelopeTau: 25e-6,
		Hysteresis:  0.1,
		PIE:         coding.DefaultPIE(),
	}
}

// ErrNoEdges is returned when the demodulator finds no usable transitions.
var ErrNoEdges = errors.New("phy: no demodulator edges detected")

// Demodulate recovers downlink bits from the received pass-band waveform.
func (rx *NodeRX) Demodulate(signal []float64) ([]byte, error) {
	bits, err := rx.demodulate(signal)
	if err != nil {
		mDownlinkDemods.With(demodError).Inc()
	} else {
		mDownlinkDemods.With(demodOK).Inc()
	}
	return bits, err
}

func (rx *NodeRX) demodulate(signal []float64) ([]byte, error) {
	if len(signal) == 0 {
		return nil, ErrNoEdges
	}
	env := dsp.Envelope(signal, rx.SampleRate, rx.EnvelopeTau)
	// Robust swing estimate: percentiles instead of min/max, so a single
	// multipath transient spike (or a startup dropout) cannot distort the
	// hysteresis width.
	lo, hi := percentileRange(env, 0.05, 0.95)
	if hi-lo < 1e-12 {
		return nil, ErrNoEdges
	}
	hys := rx.Hysteresis * (hi - lo) / 2
	// The level shifter is AC-coupled: its comparator reference is the
	// envelope's own RC-filtered average (a few pulse widths), not a fixed
	// midpoint. That keeps the slicer centred on the local high/low levels
	// even when the AGC peak is dominated by a constructive multipath
	// spike and the global midpoint would sail above both FSK levels.
	ref := movingMean(env, int(4*rx.PIE.PW*rx.SampleRate))
	// Binarise with hysteresis (the level shifter).
	type run struct {
		level bool
		dur   float64
	}
	level := env[0] > ref[0]
	var runs []run
	runStart := 0
	for i, v := range env {
		newLevel := level
		if level && v < ref[i]-hys {
			newLevel = false
		} else if !level && v > ref[i]+hys {
			newLevel = true
		}
		if newLevel != level {
			runs = append(runs, run{level, float64(i-runStart) / rx.SampleRate})
			runStart = i
			level = newLevel
		}
	}
	runs = append(runs, run{level, float64(len(env)-runStart) / rx.SampleRate})
	// Debounce: a multipath notch can dip the envelope below threshold for
	// a fraction of a pulse width mid-carrier, splitting one PIE high into
	// two and shifting every subsequent interval. The MCU timer decoder
	// ignores sub-PW/2 glitches, so merge short lows flanked by highs back
	// into their neighbours before measuring durations.
	minDur := rx.PIE.PW / 2
	for i := 1; i < len(runs)-1; i++ {
		if !runs[i].level && runs[i].dur < minDur && runs[i-1].level && runs[i+1].level {
			runs[i].level = true
		}
	}
	// Coalesce: after debouncing, contiguous high runs belong to the same
	// pulse — walk the run list summing them into single durations.
	var highs []float64
	acc := 0.0
	inHigh := false
	for _, r := range runs {
		if r.level {
			acc += r.dur
			inHigh = true
			continue
		}
		if inHigh {
			highs = append(highs, acc)
			acc, inHigh = 0, false
		}
	}
	if inHigh {
		highs = append(highs, acc)
	}
	if len(highs) == 0 {
		return nil, ErrNoEdges
	}
	// Discard leading/trailing fragments shorter than half a PW.
	var filtered []float64
	for _, d := range highs {
		if d >= minDur {
			filtered = append(filtered, d)
		}
	}
	if len(filtered) == 0 {
		return nil, ErrNoEdges
	}
	return rx.PIE.Decode(filtered), nil
}

// percentileRange returns the pLo and pHi percentiles of x.
func percentileRange(x []float64, pLo, pHi float64) (lo, hi float64) {
	if len(x) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	idx := func(p float64) int {
		i := int(p * float64(len(sorted)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return i
	}
	return sorted[idx(pLo)], sorted[idx(pHi)]
}

// movingMean returns the centred moving average of x over a window of w
// samples (clamped to the slice), via prefix sums.
func movingMean(x []float64, w int) []float64 {
	if w < 1 {
		w = 1
	}
	if w > len(x) {
		w = len(x)
	}
	pre := make([]float64, len(x)+1)
	for i, v := range x {
		pre[i+1] = pre[i] + v
	}
	out := make([]float64, len(x))
	for i := range x {
		lo := i - w/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + w
		if hi > len(x) {
			hi = len(x)
			lo = hi - w
		}
		out[i] = (pre[hi] - pre[lo]) / float64(hi-lo)
	}
	return out
}
