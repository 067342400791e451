// Package sensors is the dependency half of the dimcheck fixture: its
// annotations travel to the parent package as UnitFacts — on the
// package var (SampleRate), the struct fields (Reading), and the
// function signatures (Period, Clock) — so every cross-package check
// in the parent exercises the fact path, not the local tables.
package sensors

// SampleRate is the ADC sample rate.
//
//ecolint:unit hz
var SampleRate = 2e6

// Reading is one strain-gauge sample.
type Reading struct {
	//ecolint:unit v
	Volts float64
	//ecolint:unit s
	At float64
}

// Period converts a rate to its period.
//
//ecolint:unit rate hz
//ecolint:unit return s
func Period(rate float64) float64 {
	return 1 / rate
}

// Attenuate scales a voltage by a dimensionless gain.
//
//ecolint:unit volts v
//ecolint:unit return v
func Attenuate(volts, gain float64) float64 {
	return volts * gain
}

// Clock returns the sample period and a cursor; the annotated first
// result must spread through two-value assignments in callers.
//
//ecolint:unit return s
func Clock() (float64, int) {
	return 1 / SampleRate, 0
}
