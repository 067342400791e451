// Package dimcheck is the golden fixture for the dimensional-analysis
// pass: annotated package vars, fields and signatures — local and
// imported through sensors' UnitFacts — must flag mixed-unit adds,
// compares, stores, arguments and returns, while scalar literals,
// derived units (hz = 1/s, w = j/s) and even-exponent square roots
// stay quiet.
package dimcheck

import (
	"math"

	"dimcheck/sensors"
)

// carrier is the acoustic carrier frequency.
//
//ecolint:unit hz
var carrier = 40e3

// window is the demodulation window length.
//
//ecolint:unit s
var window = 0.005

// speed is the propagation speed in concrete.
//
//ecolint:unit m/s
var speed = 4000.0

// bias is the sensor bias voltage.
//
//ecolint:unit v
var bias = 0.4

// samples is an annotated series: the unit describes the elements.
//
//ecolint:unit v
var samples = []float64{0.1, 0.2, 0.3}

// --- malformed directives -------------------------------------------

//ecolint:unit furlong // want `unknown unit "furlong" in //ecolint:unit directive`
var badUnit = 3.0

// MisTarget has a directive naming a non-parameter.
//
//ecolint:unit bogus hz // want `unit directive names "bogus", which is not a parameter of MisTarget`
func MisTarget(x float64) float64 { return x }

// NoResult annotates a return that does not exist.
//
//ecolint:unit return s // want `unit directive annotates the return value of NoResult, which returns nothing`
func NoResult() {}

// --- positive cases -------------------------------------------------

// AddFreqTime adds a frequency to a time.
func AddFreqTime() float64 {
	return carrier + window // want `unit mismatch: carrier \(hz\) \+ window \(s\)`
}

// Compare orders a frequency against a time.
func Compare() bool {
	return carrier > window // want `unit mismatch: carrier \(hz\) > window \(s\)`
}

// Retune stores wrong-unit values into annotated package vars, local
// and imported.
func Retune() {
	carrier = 2 * window // want `cannot store s value in carrier \(declared unit hz\)`
	carrier = 38e3       // bare literal: fine
	sensors.SampleRate = window // want `cannot store s value in sensors\.SampleRate \(declared unit hz\)`
}

// StoreField stores a time into a voltage field of an imported struct.
func StoreField() {
	var r sensors.Reading
	r.Volts = window // want `cannot store s value in r\.Volts \(declared unit v\)`
	r.At = window    // matching unit: fine
	_ = r
}

// BuildReading mislabels a field in a composite literal.
func BuildReading() sensors.Reading {
	return sensors.Reading{Volts: window, At: 0.002} // want `cannot store s value in field Reading\.Volts \(declared unit v\)`
}

// CallPeriod passes a time where the imported signature wants a rate.
func CallPeriod() float64 {
	return sensors.Period(window) // want `argument window to sensors\.Period has unit s, want hz`
}

// BadRate mislabels its own result.
//
//ecolint:unit return hz
func BadRate() float64 {
	return window // want `return value has unit s, want hz`
}

// Accumulate folds a frequency into a running time.
func Accumulate() float64 {
	t := window
	t += carrier // want `unit mismatch: t \(s\) \+= carrier \(hz\)`
	return t
}

// BranchJoin keeps the unit through a join: both branches leave x in
// seconds, so the mismatch downstream is certain.
func BranchJoin(cond bool) float64 {
	x := window
	if cond {
		x = 1 / carrier
	}
	return x + carrier // want `unit mismatch: x \(s\) \+ carrier \(hz\)`
}

// SpreadResults pulls the annotated first result of a two-value call.
func SpreadResults() float64 {
	t, n := sensors.Clock()
	_ = n
	return t + carrier // want `unit mismatch: t \(s\) \+ carrier \(hz\)`
}

// --- negative cases -------------------------------------------------

// Delay divides a length by a speed and gets a time.
//
//ecolint:unit dist m
//ecolint:unit return s
func Delay(dist float64) float64 {
	return dist / speed
}

// SamplesIn counts whole samples in a window: hz·s is dimensionless
// and compares freely against a bare count.
func SamplesIn() bool {
	return carrier*window > 100
}

// RMSSpeed takes the square root of an even-exponent square.
//
//ecolint:unit return m/s
func RMSSpeed() float64 {
	return math.Sqrt(speed * speed)
}

// Rate inverts a period: 1/s is hz.
//
//ecolint:unit return hz
func Rate() float64 {
	return 1 / window
}

// Dissipated multiplies power by time and returns energy (w·s = j).
//
//ecolint:unit p w
//ecolint:unit t s
//ecolint:unit return j
func Dissipated(p, t float64) float64 {
	return p * t
}

// MeanVolt ranges over an annotated series; counts from len are pure
// scalars and math.Abs is unit-transparent.
//
//ecolint:unit return v
func MeanVolt() float64 {
	sum := 0.0
	for _, s := range samples {
		sum += math.Abs(s)
	}
	return sum / float64(len(samples))
}

// CleanCalls match the imported signatures exactly.
func CleanCalls() float64 {
	p := sensors.Period(carrier)
	v := sensors.Attenuate(bias, 0.5)
	return p*carrier + v/bias
}

// Suppressed documents a deliberate mixed add.
func Suppressed() float64 {
	//ecolint:ignore dimcheck the carrier rides on the window envelope here
	return carrier + window
}

// Scaled shows bare literals composing freely with any unit.
func Scaled() float64 {
	return carrier*2 + 500 + badUnit*carrier
}

// CaseCompare mixes units in a case expression.
func CaseCompare() bool {
	switch {
	case carrier > window: // want `unit mismatch: carrier \(hz\) > window \(s\)`
		return true
	}
	return false
}
