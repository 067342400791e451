// Package coding implements the line codes of the EcoCapsule air (well,
// concrete) interface: pulse-interval encoding for the downlink (§3.3),
// FM0 for the uplink (§3.4) with a maximum-likelihood decoder, and the
// CRC-16 used for packet integrity, following the EPC UHF Gen2 conventions
// the paper adopts.
package coding

import (
	"errors"
	"fmt"
)

// PIEConfig describes the pulse-interval-encoding timing. All durations are
// in seconds of baseband time. In PIE each symbol ends with a fixed
// low-voltage pulse (PW); a bit 0 carries a short high-voltage interval and
// a bit 1 a long one, so even a run of zeros still delivers ≥50 % of peak
// power to the harvester.
type PIEConfig struct {
	// PW is the low-voltage pulse width terminating every symbol.
	PW float64
	// HighZero is the high-voltage duration of a bit 0. The paper's
	// power argument uses HighZero == PW (≥50 % power for all-zero data).
	HighZero float64
	// HighOne is the high-voltage duration of a bit 1 (typically
	// 3×HighZero per the "63 % of peak power" variant).
	HighOne float64
}

// DefaultPIE returns the timing used throughout the evaluation: a 1 kbps
// downlink with equal high/low halves for bit 0 and a 3:1 bit 1, matching
// the Fig. 7 symbol (0.5 ms high + 0.5 ms low for bit 0).
func DefaultPIE() PIEConfig {
	return PIEConfig{PW: 0.5e-3, HighZero: 0.5e-3, HighOne: 1.5e-3}
}

// Validate checks the timing for internal consistency.
func (c PIEConfig) Validate() error {
	if c.PW <= 0 || c.HighZero <= 0 || c.HighOne <= 0 {
		return errors.New("coding: PIE durations must be positive")
	}
	if c.HighOne <= c.HighZero {
		return errors.New("coding: PIE bit 1 must be longer than bit 0")
	}
	return nil
}

// SymbolDuration returns the total duration of a 0 or 1 symbol.
func (c PIEConfig) SymbolDuration(bit byte) float64 {
	if bit == 0 {
		return c.HighZero + c.PW
	}
	return c.HighOne + c.PW
}

// MinPowerFraction returns the guaranteed fraction of peak power delivered
// by the worst-case (all-zero) data stream: HighZero/(HighZero+PW).
func (c PIEConfig) MinPowerFraction() float64 {
	return c.HighZero / (c.HighZero + c.PW)
}

// MeanPowerFraction returns the power fraction for a balanced random bit
// stream: the duty-cycle average over equally likely 0 and 1 symbols.
func (c PIEConfig) MeanPowerFraction() float64 {
	e := (c.HighZero + c.HighOne) / 2
	return e / (e + c.PW)
}

// Edge is one level interval of a PIE baseband waveform.
type Edge struct {
	High     bool
	Duration float64
}

// Encode converts bits into the PIE edge sequence. Bits are transmitted
// MSB-of-slice-first in slice order; each entry of bits must be 0 or 1.
func (c PIEConfig) Encode(bits []byte) ([]Edge, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	edges := make([]Edge, 0, 2*len(bits))
	for i, b := range bits {
		switch b {
		case 0:
			edges = append(edges, Edge{High: true, Duration: c.HighZero})
		case 1:
			edges = append(edges, Edge{High: true, Duration: c.HighOne})
		default:
			return nil, fmt.Errorf("coding: bit %d has invalid value %d", i, b)
		}
		edges = append(edges, Edge{High: false, Duration: c.PW})
	}
	return edges, nil
}

// Decode recovers bits from measured high-interval durations, the way the
// node's MCU does it: a timer interrupt measures the time between
// demodulator edges (§4.2) and classifies each high interval against the
// midpoint threshold between HighZero and HighOne.
func (c PIEConfig) Decode(highDurations []float64) []byte {
	threshold := (c.HighZero + c.HighOne) / 2
	bits := make([]byte, len(highDurations))
	for i, d := range highDurations {
		if d > threshold {
			bits[i] = 1
		}
	}
	return bits
}

// Duration returns the total baseband time of the encoded bit sequence.
func (c PIEConfig) Duration(bits []byte) float64 {
	var d float64
	for _, b := range bits {
		d += c.SymbolDuration(b)
	}
	return d
}
