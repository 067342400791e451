package material

import "ecocapsule/internal/units"

// The catalog below encodes Table 1 of the paper (mix proportions in kg/m³
// and mechanical properties) for the three concretes evaluated, plus the
// auxiliary media the system touches: air, water (PAB pools), the PLA wave
// prism, the SLA resin shell, and alloy steel (the high-rise shell option).
//
// Velocity calibration (see DESIGN.md "Calibration notes"): the paper's
// Fig. 4 critical angles (≈34° and ≈73°) pin C_PLA/C_P,con = sin 34° and
// C_PLA/C_S,con = sin 73°. With PLA longitudinal speed 2250 m/s that gives
// concrete C_P ≈ 4025 m/s and C_S ≈ 2353 m/s; the NC literature values
// (C_P ≈ 3338, C_S ≈ 1941 from Lee & Oh 2016, cited as [41]) are kept for
// normal concrete, and the prism geometry uses the NC-specific angles.

// NC is normal concrete (Table 1 column "NC"): 54.1 MPa compressive
// strength, the weakest responder in Fig. 5(b).
func NC() *Material {
	return &Material{
		Name:                "NC",
		Kind:                Solid,
		Density:             2300,
		CompressiveStrength: 54.1 * units.MPa,
		ElasticModulus:      27.8 * units.GPa,
		PoissonRatio:        0.18,
		PeakStrain:          0.00263,
		Mix: MixProportions{
			Cement: 300, FlyAsh: 200, Sand: 796, Granite: 829,
			Water: 175, HRWR: 9,
		},
		measuredVP:            3338, // Lee & Oh 2016 [41]
		measuredVS:            1941,
		measuredImpedance:     4.66e6, // Yesiller et al. 1997 [61]
		AttenuationDBPerMeter: 0.35,   // calibrated to the Fig. 12 range anchors
		ResonantFrequency:     220 * units.KHz,
		ResonanceQ:            3.6,
		PeakResponse:          2.4, // volts, Fig. 5(b) NC peak ≈ 2400 mV
	}
}

// UHPC is ultra-high-performance concrete (Table 1 column "UHPC"):
// 195.3 MPa compressive strength, far stronger peak response than NC.
func UHPC() *Material {
	return &Material{
		Name:                "UHPC",
		Kind:                Solid,
		Density:             2348,
		CompressiveStrength: 195.3 * units.MPa,
		ElasticModulus:      52.5 * units.GPa,
		PoissonRatio:        0.21,
		PeakStrain:          0.00447,
		Mix: MixProportions{
			Cement: 830, SilicaFume: 207, QuartzPower: 207,
			Sand: 913, Water: 164, HRWR: 27,
		},
		measuredVP:            4025,
		measuredVS:            2353,
		measuredImpedance:     9.45e6,
		AttenuationDBPerMeter: 0.22,
		ResonantFrequency:     230 * units.KHz, // measured (Fig. 5b); stays if the operating point moves
		ResonanceQ:            4.2,
		PeakResponse:          6.3, // volts, Fig. 5(b)
	}
}

// UHPFRC is ultra-high-performance fibre-reinforced concrete (Table 1 column
// "UHPSSC" — the steel-fibre seawater-sea-sand mix): 215.0 MPa, the
// strongest concrete produced with standard mixing and curing (Appendix B).
func UHPFRC() *Material {
	return &Material{
		Name:                "UHPFRC",
		Kind:                Solid,
		Density:             2757, // includes 471 kg/m³ steel fibre
		CompressiveStrength: 215.0 * units.MPa,
		ElasticModulus:      52.7 * units.GPa,
		PoissonRatio:        0.21,
		PeakStrain:          0.00447,
		Mix: MixProportions{
			Cement: 807, SilicaFume: 202, QuartzPower: 202,
			Sand: 888, SteelFiber: 471, Water: 158, HRWR: 29,
		},
		measuredVP:            4100,
		measuredVS:            2400,
		measuredImpedance:     11.3e6,
		AttenuationDBPerMeter: 0.20,
		ResonantFrequency:     235 * units.KHz,
		ResonanceQ:            4.0,
		PeakResponse:          6.8, // volts, Fig. 5(b)
	}
}

// Water models the PAB test pools (underwater backscatter baseline).
// Single-mode fluid medium: P-waves only (§3.1).
func Water() *Material {
	return &Material{
		Name:                  "water",
		Kind:                  Fluid,
		Density:               1000,
		measuredVP:            1481,
		measuredImpedance:     1.48e6,
		AttenuationDBPerMeter: 1.2, // at the 15 kHz PAB carrier band (scaled)
		ResonantFrequency:     15 * units.KHz,
		ResonanceQ:            1.5,
		PeakResponse:          1.0,
	}
}

// Air models the medium outside the structure; the enormous impedance
// mismatch with concrete is what makes the internal reflections near-total
// (eq. 1: R ≈ 99.98 %).
func Air() *Material {
	return &Material{
		Name:              "air",
		Kind:              Fluid,
		Density:           1.21,
		measuredVP:        units.SpeedOfSoundAir,
		measuredImpedance: 415, // 4.15e2 kg/m²s per [61]
	}
}

// PLA is the polylactic-acid wave prism material (§3.2). Its longitudinal
// speed of 2250 m/s against concrete's C_P reproduces the published first
// critical angle of ≈34°; its impedance is set so the prism→concrete
// reflection coefficient is ≈33.4 % (≈67 % energy conducted).
func PLA() *Material {
	return &Material{
		Name:              "PLA",
		Kind:              Solid,
		Density:           1250,
		ElasticModulus:    3.5 * units.GPa,
		PoissonRatio:      0.36,
		measuredVP:        2250,
		measuredVS:        1020,
		measuredImpedance: 2.33e6, // ≈ Z_con/2 → R ≈ 33.4 %
	}
}

// Resin is the SLA 3-D-printing resin of the EcoCapsule shell (§4.1):
// ≈65 MPa tensile strength, ≈2.2 GPa Young's modulus. Its ShellPressureMax
// of 4.3 MPa comes from the paper's finite-element result for a 2 mm shell
// with ≤5 % deformation.
func Resin() *Material {
	return &Material{
		Name:                "resin",
		Kind:                Solid,
		Density:             1180,
		CompressiveStrength: 65 * units.MPa,
		ElasticModulus:      2.2 * units.GPa,
		PoissonRatio:        0.35,
	}
}

// AlloySteel is the metal shell option for very tall buildings (§4.1),
// tolerating ΔP ≈ 115.2 MPa.
func AlloySteel() *Material {
	return &Material{
		Name:                "alloy-steel",
		Kind:                Solid,
		Density:             7850,
		CompressiveStrength: 620 * units.MPa,
		ElasticModulus:      210 * units.GPa,
		PoissonRatio:        0.29,
		measuredVP:          5960,
		measuredVS:          3235,
	}
}

// Concretes returns the three Table 1 concretes in paper order.
func Concretes() []*Material {
	return []*Material{NC(), UHPC(), UHPFRC()}
}

// ByName looks up a catalog material by its Name field (case-sensitive).
// It returns nil when the name is unknown.
func ByName(name string) *Material {
	for _, m := range []*Material{
		NC(), UHPC(), UHPFRC(), Water(), Air(), PLA(), Resin(), AlloySteel(),
	} {
		if m.Name == name {
			return m
		}
	}
	return nil
}
