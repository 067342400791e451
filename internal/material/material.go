// Package material models the acoustic media of the EcoCapsule system: the
// three concretes evaluated in the paper (Table 1), the fluids used by the
// underwater PAB baseline, and the fabrication materials (PLA prism, resin
// shell, alloy steel).
//
// Each Material carries the measured mechanical properties from Table 1 and
// exposes derived elastic-wave quantities: Lamé parameters, P- and S-wave
// velocities, acoustic impedance, attenuation, and the concrete frequency
// response that Fig. 5(b) measures (a resonance band between 200 and 250 kHz
// whose peak amplitude grows with compressive strength).
package material

import (
	"fmt"
	"math"

	"ecocapsule/internal/units"
)

// Kind enumerates the broad acoustic classes of media.
type Kind int

const (
	// Solid media carry both P- and S-waves.
	Solid Kind = iota
	// Fluid media (water, air) carry P-waves only; shear cannot propagate.
	Fluid
)

func (k Kind) String() string {
	switch k {
	case Solid:
		return "solid"
	case Fluid:
		return "fluid"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MixProportions records a concrete mix design in kg/m³ as published in
// Table 1 of the paper. Zero entries mean the component is absent.
type MixProportions struct {
	Cement      float64
	SilicaFume  float64
	FlyAsh      float64
	QuartzPower float64
	Sand        float64
	Granite     float64
	SteelFiber  float64
	Water       float64
	HRWR        float64 // high-range water reducer
}

// Total returns the total mass per cubic metre of the mix.
func (m MixProportions) Total() float64 {
	return m.Cement + m.SilicaFume + m.FlyAsh + m.QuartzPower +
		m.Sand + m.Granite + m.SteelFiber + m.Water + m.HRWR
}

// Material describes one acoustic medium.
type Material struct {
	Name string
	Kind Kind

	// Density is the bulk density in kg/m³.
	Density float64
	// CompressiveStrength f_co in Pa (Table 1 row f_co).
	//
	//ecolint:unit pa
	CompressiveStrength float64
	// ElasticModulus E_c in Pa (Table 1 row E_c).
	//
	//ecolint:unit pa
	ElasticModulus float64
	// PoissonRatio ν (Table 1 row ν); dimensionless.
	PoissonRatio float64
	// PeakStrain ε_co, dimensionless (Table 1 row ε_co, fraction not %).
	PeakStrain float64

	// Mix holds the published mix proportions (concretes only).
	Mix MixProportions

	// measuredVP/measuredVS override the Lamé-derived velocities with
	// measured values when the literature reports them (m/s). Zero means
	// "derive from elastic constants".
	//
	//ecolint:unit m/s
	measuredVP, measuredVS float64

	// measuredImpedance overrides the ρ·c impedance with a measured value
	// in Rayl (kg/m²s) when available. Zero means derive.
	measuredImpedance float64

	// AttenuationDBPerMeter is the amplitude attenuation of the preferred
	// body-wave mode at 230 kHz, the frequency it was measured at, in
	// dB/m. Higher-strength concretes attenuate less (§3.3 finding 2).
	//
	//ecolint:unit db/m
	AttenuationDBPerMeter float64

	// ResonantFrequency is the centre of the concrete's resonance band in
	// Hz (Fig. 5b: between 200 and 250 kHz for all tested blocks), and
	// ResonanceQ its quality factor.
	//
	//ecolint:unit hz
	ResonantFrequency float64
	ResonanceQ        float64

	// PeakResponse is the receive amplitude in volts at the resonant
	// frequency under the Fig. 5 stimulus (100 V, 45° prism, 15 cm block).
	//
	//ecolint:unit v
	PeakResponse float64
}

// LameParameters returns (λ, µ) derived from E and ν.
func (m *Material) LameParameters() (lambda, mu float64) {
	e, nu := m.ElasticModulus, m.PoissonRatio
	if e == 0 {
		return 0, 0
	}
	mu = e / (2 * (1 + nu))
	lambda = e * nu / ((1 + nu) * (1 - 2*nu))
	return lambda, mu
}

// VP returns the P-wave (primary/compressional) velocity in m/s, either the
// measured value or α = sqrt((λ+2µ)/ρ) from Appendix A eq. 8.
//
//ecolint:unit return m/s
func (m *Material) VP() float64 {
	if m.measuredVP > 0 {
		return m.measuredVP
	}
	lambda, mu := m.LameParameters()
	if m.Density == 0 {
		return 0
	}
	return math.Sqrt((lambda + 2*mu) / m.Density)
}

// VS returns the S-wave (secondary/shear) velocity in m/s, either the
// measured value or β = sqrt(µ/ρ) from Appendix A eq. 10. Fluids return 0:
// shear waves do not exist in liquids (§3.1).
//
//ecolint:unit return m/s
func (m *Material) VS() float64 {
	if m.Kind == Fluid {
		return 0
	}
	if m.measuredVS > 0 {
		return m.measuredVS
	}
	_, mu := m.LameParameters()
	if m.Density == 0 {
		return 0
	}
	return math.Sqrt(mu / m.Density)
}

// WaveSpeed returns the speed the capsules' carrier travels at in the
// medium: the S-wave speed, or the P-wave speed where the medium carries
// no shear.
//
//ecolint:unit return m/s
func (m *Material) WaveSpeed() float64 {
	if vs := m.VS(); vs != 0 {
		return vs
	}
	return m.VP()
}

// Impedance returns the characteristic acoustic impedance in Rayl (kg/m²s):
// the measured value when available, otherwise ρ·V_P.
func (m *Material) Impedance() float64 {
	if m.measuredImpedance > 0 {
		return m.measuredImpedance
	}
	return m.Density * m.VP()
}

// SupportsShear reports whether the medium can carry S-waves.
func (m *Material) SupportsShear() bool { return m.Kind == Solid && m.VS() > 0 }

// FrequencyResponse returns the relative amplitude gain (linear, ≤1 at the
// peak normalised per-material) of a continuous body wave at frequency f,
// reproducing the shape of Fig. 5(b): a resonance band around
// ResonantFrequency with rapid attenuation beyond it.
//
// The response is a Lorentzian resonance multiplied by a high-frequency
// roll-off; the absolute peak amplitude is PeakResponse (volts under the
// Fig. 5 stimulus).
//
//ecolint:unit f hz
//ecolint:unit return dimensionless
func (m *Material) FrequencyResponse(f float64) float64 {
	if f <= 0 {
		return 0
	}
	f0 := m.ResonantFrequency
	if f0 == 0 {
		return 0
	}
	q := m.ResonanceQ
	if q == 0 {
		q = 4
	}
	// Lorentzian resonance.
	x := (f/f0 - f0/f) * q
	lorentz := 1 / (1 + x*x)
	// High-frequency roll-off: "beyond which the propagation attenuates
	// rapidly" — a 3rd-order low-pass knee slightly above resonance.
	knee := f0 * 1.25
	roll := 1 / (1 + math.Pow(f/knee, 6))
	// Low-frequency shoulder so the 20 kHz end is small but non-zero.
	shoulder := f / (f + f0/6)
	return lorentz*0.85*roll + 0.15*shoulder*roll*lorentzSide(f, f0)
}

// lorentzSide gives a gentle skirt so the off-resonance floor mirrors the
// measured curves (non-zero response across the sweep band).
//
//ecolint:unit f hz
//ecolint:unit f0 hz
//ecolint:unit return dimensionless
func lorentzSide(f, f0 float64) float64 {
	d := math.Abs(f-f0) / f0
	return 1 / (1 + 4*d)
}

// ResponseVolts is the absolute RX amplitude (volts) for the Fig. 5 stimulus
// at frequency f: PeakResponse scaled by the relative response.
//
//ecolint:unit f hz
//ecolint:unit return v
func (m *Material) ResponseVolts(f float64) float64 {
	peak := m.FrequencyResponse(m.ResonantFrequency)
	if peak == 0 {
		return 0
	}
	return m.PeakResponse * m.FrequencyResponse(f) / peak
}

// AttenuationAt returns amplitude attenuation in dB/m for body waves at
// frequency f. Attenuation in solids grows roughly with f² (Kishore 1968,
// cited as [39]); we anchor the curve at the catalog's measured value.
//
//ecolint:unit f hz
//ecolint:unit return db/m
func (m *Material) AttenuationAt(f float64) float64 {
	// The frequency the catalog's dB/m figures were measured at. A
	// measurement condition, not the operating point: it stays put if the
	// link's carrier moves.
	const measuredAt = 230 * units.KHz
	if f <= 0 {
		return m.AttenuationDBPerMeter
	}
	ratio := f / measuredAt
	return m.AttenuationDBPerMeter * ratio * ratio
}

// String implements fmt.Stringer.
func (m *Material) String() string {
	return fmt.Sprintf("%s(ρ=%.0f kg/m³, VP=%.0f m/s, VS=%.0f m/s)",
		m.Name, m.Density, m.VP(), m.VS())
}
