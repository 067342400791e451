// Package unitsafety is the golden fixture for dimcheck's bare
// unit-multiplier rule: a literal equal to an internal/units multiplier
// that is the whole value, or a factor, of a slot with a known unit is
// reported with the constant to write instead, while the constants
// themselves, non-multipliers and unitless slots stay quiet.
package unitsafety

import "unitsafety/internal/units"

// window is the demodulation window length.
//
//ecolint:unit s
var window = 0.005

// bias is the sensor bias voltage.
//
//ecolint:unit v
var bias = 0.4

// Period converts a rate to its period.
//
//ecolint:unit rate hz
//ecolint:unit return s
func Period(rate float64) float64 {
	return 1 / rate
}

// tick is one scope tick.
//
//ecolint:unit s
const tick = 1e-3 // want `bare unit multiplier 1e-3 in a s value; use units\.MS`

// budget is the energy one report may spend.
//
//ecolint:unit j
var budget = 4.4 * 1e-6 // want `bare unit multiplier 1e-6 in a j value; use units\.UJ`

// perBit is the energy one bit costs.
//
//ecolint:unit j
var perBit = 1e-3 // want `bare unit multiplier 1e-3 in a j value; use units\.MJ`

// Front is a receiver front end.
type Front struct {
	//ecolint:unit hz
	SampleRate float64
	//ecolint:unit v
	DiodeDrop float64
	Samples   int
}

// Configure writes multipliers into annotated fields; the product's
// factor is reported as well as the whole value.
//
//ecolint:unit freqHz hz
func Configure(f *Front, freqHz float64) Front {
	f.SampleRate = 1e6          // want `bare unit multiplier 1e6 in a hz value; use units\.MHz`
	f.SampleRate = freqHz * 1e3 // want `bare unit multiplier 1e3 in a hz value; use units\.KHz`
	f.Samples = 1000            // ok: Samples carries no unit
	f.SampleRate = 250          // ok: 250 is not a multiplier
	f.SampleRate = 2 * units.KHz
	return Front{
		SampleRate: 1e6,        // want `bare unit multiplier 1e6 in a hz value; use units\.MHz`
		DiodeDrop:  120 * 1e-3, // want `bare unit multiplier 1e-3 in a v value; use units\.MV`
		Samples:    1000,       // ok: Samples carries no unit
	}
}

// ToMetres scales a width by a bare multiplier on its way into an
// annotated result.
//
//ecolint:unit width m
//ecolint:unit return m
func ToMetres(width float64) float64 {
	return width * 1e-3 // want `bare unit multiplier 1e-3 in a m value; use units\.MM`
}

// Ripple divides a voltage by a multiplier; a quotient's factors count.
//
//ecolint:unit vin v
//ecolint:unit return v
func Ripple(vin float64) float64 {
	return 1e-6 * vin / 2 // want `bare unit multiplier 1e-6 in a v value; use units\.UV`
}

// Operands checks the other operand's unit: comparisons, sums and
// arguments all resolve one.
func Operands() bool {
	t := window
	t += 1e-3             // want `bare unit multiplier 1e-3 in a s value; use units\.MS`
	_ = Period(1e6)       // want `bare unit multiplier 1e6 in a hz value; use units\.MHz`
	_ = Period(units.KHz) // ok: the named constant
	_ = t + 1e-9          // ok: no internal/units constant is 1e-9
	_ = bias + 2*1e-3     // want `bare unit multiplier 1e-3 in a v value; use units\.MV`
	return -1e-3 < t      // want `bare unit multiplier 1e-3 in a s value; use units\.MS`
}
