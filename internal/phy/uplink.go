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

// UplinkCoding selects the line code of the backscatter uplink.
type UplinkCoding int

const (
	// CodingFM0 is the paper's default (§3.4).
	CodingFM0 UplinkCoding = iota
	// CodingMiller4 trades 4× rate for noise robustness (Gen2 Miller).
	CodingMiller4
)

// BackscatterTX is the node's uplink modulator: FM0- (or Miller-) coded
// impedance switching against the incident CBW, at a backscatter link
// frequency (BLF) offset from the carrier so the reader can filter the
// self-interference in the spectrum (§3.4, Appendix C).
type BackscatterTX struct {
	Synth *waveform.Synth
	// Bitrate of the uplink in bits/s (default 1 kbps per §5.1).
	//ecolint:unit hz
	Bitrate float64
	// ReflectGain and AbsorbGain are the node's two radar cross-sections.
	ReflectGain, AbsorbGain float64
	// Coding selects FM0 (default) or Miller-4.
	Coding UplinkCoding
}

// NewBackscatterTX returns the default uplink modulator.
//
//ecolint:unit fs hz
func NewBackscatterTX(fs float64) *BackscatterTX {
	return &BackscatterTX{
		Synth:       waveform.NewSynth(fs),
		Bitrate:     1 * units.KHz,
		ReflectGain: 0.45,
		AbsorbGain:  0.03,
	}
}

// HalfSymbolDuration returns the duration of one half-symbol of the
// configured code: FM0 spends two halves per bit; Miller-4 spends eight at
// the same switching rate (so its effective bitrate is 4× lower).
//
//ecolint:unit return s
func (tx *BackscatterTX) HalfSymbolDuration() float64 { return 1 / (2 * tx.Bitrate) }

// encode renders the configured line code to half-symbol levels.
func (tx *BackscatterTX) encode(bits []byte) ([]float64, error) {
	if tx.Coding == CodingMiller4 {
		return coding.MillerEncode(bits, coding.Miller4)
	}
	return coding.FM0Encode(bits)
}

// Modulate produces the backscattered waveform for the given bits against
// the incident carrier samples. The incident slice must cover the full
// frame duration; the result has the same length.
func (tx *BackscatterTX) Modulate(bits []byte, incident []float64) ([]float64, error) {
	return tx.ModulateInto(nil, bits, incident)
}

// ModulateInto is Modulate writing the waveform into dst's storage when its
// capacity holds the frame (a new slice otherwise).
func (tx *BackscatterTX) ModulateInto(dst []float64, bits []byte, incident []float64) ([]float64, error) {
	halves, err := tx.encode(bits)
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
	return tx.Synth.BackscatterModulateInto(dst, incident[:need], states, half, tx.ReflectGain, tx.AbsorbGain), nil
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
	// Coding must match the node's uplink code (FM0 default).
	Coding UplinkCoding
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

// BLFPlan assigns backscatter link frequencies to nodes: node i gets
// Base + i·Spacing, each at least GuardBand away from the carrier.
type BLFPlan struct {
	Base    float64 //ecolint:unit hz first BLF offset from the carrier
	Spacing float64 //ecolint:unit hz spacing between adjacent nodes
	Guard   float64 //ecolint:unit hz minimum offset from the carrier
}

// DefaultBLFPlan reserves a few kHz as the §3.4 guard band.
func DefaultBLFPlan() BLFPlan {
	return BLFPlan{Base: 2 * units.KHz, Spacing: 1 * units.KHz, Guard: 1 * units.KHz}
}

// Offset returns the BLF offset for node index i (i ≥ 0).
//
//ecolint:unit return hz
func (p BLFPlan) Offset(i int) float64 {
	off := p.Base + float64(i)*p.Spacing
	if off < p.Guard {
		off = p.Guard
	}
	return off
}

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
