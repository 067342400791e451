package coding

import (
	"errors"
	"fmt"
	"math"
)

// Validating decoder entry points. The raw decoders (FM0DecodeML,
// MillerDecode, PIEConfig.Decode) assume well-formed sample buffers because
// the simulation produces them; production decodes through
// FM0DecodeMLAppend on those buffers. These wrappers are the untrusted-input
// boundary the fuzzers drive: they must reject garbage with an error and
// never panic.

// Errors returned by the validating decoders.
var (
	ErrNonFiniteSample = errors.New("coding: non-finite sample")
	ErrOddHalfCount    = errors.New("coding: half-symbol count not a multiple of the symbol size")
	ErrNegativeDur     = errors.New("coding: negative interval duration")
)

// DecodeFM0 validates untrusted half-symbol samples and runs the ML
// decoder. It rejects NaN/Inf samples (the Viterbi metric is undefined
// there) and buffers that do not hold whole symbols.
func DecodeFM0(halves []float64) ([]byte, error) {
	if len(halves)%2 != 0 {
		return nil, fmt.Errorf("%w: %d halves for FM0", ErrOddHalfCount, len(halves))
	}
	if i := firstNonFinite(halves); i >= 0 {
		return nil, fmt.Errorf("%w: sample %d", ErrNonFiniteSample, i)
	}
	return FM0DecodeML(halves), nil
}

// DecodeMiller validates untrusted half-cycle samples and runs the Miller
// correlation decoder for subcarrier factor m.
func DecodeMiller(halves []float64, m MillerM) ([]byte, error) {
	if !m.Valid() {
		return nil, ErrBadMillerM
	}
	if len(halves)%(2*int(m)) != 0 {
		return nil, fmt.Errorf("%w: %d halves for Miller-%d", ErrOddHalfCount, len(halves), int(m))
	}
	if i := firstNonFinite(halves); i >= 0 {
		return nil, fmt.Errorf("%w: sample %d", ErrNonFiniteSample, i)
	}
	return MillerDecode(halves, m)
}

// DecodePIE validates untrusted high-interval durations and classifies them
// under the given timing. Durations must be finite and non-negative (an
// MCU timer cannot measure a negative interval).
func DecodePIE(c PIEConfig, highDurations []float64) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for i, d := range highDurations {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("%w: interval %d", ErrNonFiniteSample, i)
		}
		if d < 0 {
			return nil, fmt.Errorf("%w: interval %d = %g", ErrNegativeDur, i, d)
		}
	}
	return c.Decode(highDurations), nil
}

// firstNonFinite returns the index of the first NaN/Inf sample, -1 if none.
func firstNonFinite(xs []float64) int {
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}
