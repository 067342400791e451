package phy

import (
	"errors"
	"math"

	"ecocapsule/internal/coding"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
	"ecocapsule/internal/waveform"
)

// The node's two radar cross-sections: the reflect and absorb states of
// its impedance switch.
const (
	reflectGain = 0.45
	absorbGain  = 0.03
)

// BackscatterTX is the node's uplink modulator: FM0-coded impedance
// switching against the incident CBW, at a backscatter link frequency
// (BLF) offset from the carrier so the reader can filter the
// self-interference in the spectrum (§3.4, Appendix C).
type BackscatterTX struct {
	Synth *waveform.Synth
	// Bitrate of the uplink in bits/s (default 1 kbps per §5.1).
	//ecolint:unit hz
	Bitrate float64
}

// NewBackscatterTX returns the default uplink modulator.
//
//ecolint:unit fs hz
func NewBackscatterTX(fs float64) *BackscatterTX {
	return &BackscatterTX{
		Synth:   waveform.NewSynth(fs),
		Bitrate: 1 * units.KHz,
	}
}

// HalfSymbolDuration returns the duration of one FM0 half-symbol (two per
// bit).
//
//ecolint:unit return s
func (tx *BackscatterTX) HalfSymbolDuration() float64 { return 1 / (2 * tx.Bitrate) }

// Modulate produces the backscattered waveform for the given bits against
// the incident carrier samples. The incident slice must cover the full
// frame duration; the result has the same length.
func (tx *BackscatterTX) Modulate(bits []byte, incident []float64) ([]float64, error) {
	return tx.ModulateInto(nil, bits, incident)
}

// ModulateInto is Modulate writing the waveform into dst's storage when its
// capacity holds the frame (a new slice otherwise).
func (tx *BackscatterTX) ModulateInto(dst []float64, bits []byte, incident []float64) ([]float64, error) {
	halves, err := coding.FM0Encode(bits)
	if err != nil {
		return nil, err
	}
	states := waveform.FM0States(halves)
	// Half-symbols on the reader's grid: ReaderRX integrates half h over
	// [int(h·fs/(2·bitrate)), int((h+1)·fs/(2·bitrate))).
	half := tx.Synth.SampleRate / (2 * tx.Bitrate)
	need := int(float64(len(states)) * half)
	if len(incident) < need {
		return nil, errors.New("phy: incident carrier shorter than the frame")
	}
	return tx.Synth.BackscatterModulateInto(dst, incident[:need], states, half, reflectGain, absorbGain), nil
}

// ReaderRX is the reader's uplink receive chain (§5.1): estimate the
// carrier, digitally down-convert, filter the backscatter band (rejecting
// the CBW self-interference through the guard band), matched-filter the
// half-symbols and run the maximum-likelihood FM0 decoder.
type ReaderRX struct {
	//ecolint:unit hz
	SampleRate float64
	// CarrierHint brackets the carrier estimator (Hz).
	//ecolint:unit hz
	CarrierHint float64
	// CarrierSearch half-width around the hint (Hz).
	//ecolint:unit hz
	CarrierSearch float64
	// Bitrate of the uplink (must match the node).
	//ecolint:unit hz
	Bitrate float64
	// GuardBand is the spectral gap between the carrier and the
	// backscatter band edge (Hz).
	//ecolint:unit hz
	GuardBand float64
}

// NewReaderRX returns the default reader chain for the operating-point
// carrier.
//
//ecolint:unit fs hz
func NewReaderRX(fs float64) *ReaderRX {
	return &ReaderRX{
		SampleRate:    fs,
		CarrierHint:   physics.CarrierHz,
		CarrierSearch: 20 * units.KHz,
		Bitrate:       1 * units.KHz,
		GuardBand:     500,
	}
}

// ErrNoCarrier is returned when the carrier estimator finds nothing.
var ErrNoCarrier = errors.New("phy: no carrier found in the search band")

// SNREstimate measures the uplink SNR (dB) of a capture: the power in the
// two backscatter sidebands (carrier ± blf) against the noise floor
// measured away from carrier and sidebands.
//
//ecolint:unit fs hz
//ecolint:unit carrier hz
//ecolint:unit blf hz
//ecolint:unit return db
func SNREstimate(signal []float64, fs, carrier, blf float64) float64 {
	pSig := dsp.Goertzel(signal, fs, carrier+blf) + dsp.Goertzel(signal, fs, carrier-blf)
	// Noise probes offset from all deterministic lines.
	probes := []float64{carrier + 3.7*blf, carrier - 3.3*blf, carrier + 5.1*blf}
	var pNoise float64
	for _, f := range probes {
		pNoise += dsp.Goertzel(signal, fs, f)
	}
	pNoise /= float64(len(probes))
	if pNoise <= 0 {
		return math.Inf(1)
	}
	return units.DB(pSig / pNoise)
}
