package geometry

import (
	"math"
	"sort"

	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
)

// Arrival is one ray of the multipath impulse response: a copy of the
// injected wave arriving after Delay seconds with linear amplitude Gain
// (relative to the unit-amplitude injection) via Bounces boundary
// reflections. Mode distinguishes the P and S copies when both exist.
type Arrival struct {
	// Delay from injection to arrival, in seconds.
	//
	//ecolint:unit s
	Delay float64
	// Gain is the linear amplitude relative to the unit injection.
	//
	//ecolint:unit dimensionless
	Gain    float64
	Bounces int
	Shear   bool // true for S-wave arrivals
}

// ImpulseConfig parameterises the image-source model.
type ImpulseConfig struct {
	// Frequency of the carrier (Hz), for attenuation scaling.
	//
	//ecolint:unit hz
	Frequency float64
	// MaxOrder is the highest reflection order expanded per axis.
	MaxOrder int
	// MinGain discards arrivals below this linear amplitude.
	MinGain float64
	// PFraction and SFraction are the relative amplitudes of the two mode
	// copies at injection (from physics.Boundary.ModeAmplitudes). For
	// fluids SFraction must be 0.
	PFraction, SFraction float64
}

// DefaultImpulseConfig returns the configuration used by the experiments:
// the operating-point carrier injected through the S-only PLA prism.
func DefaultImpulseConfig() ImpulseConfig {
	return ImpulseConfig{
		Frequency: physics.CarrierHz,
		MaxOrder:  3,
		MinGain:   1e-4,
		PFraction: 0,
		SFraction: 1,
	}
}

// ImpulseResponse computes the multipath arrivals between a source (the
// reader's injection point on the surface) and a receiver (the embedded
// node) inside the structure, using the image-source method over the box
// boundaries (cylinders are approximated by their bounding box). Each image
// of order (i,j,k) contributes a path whose amplitude combines:
//
//   - geometric spreading 1/max(d, 5 cm) relative to the 5 cm reference,
//   - material absorption at the carrier frequency,
//   - per-bounce boundary loss: the near-total air reflection (eq. 1)
//     times the structure's surface loss.
//
// Arrivals are returned sorted by delay. Both the P and S copies are
// expanded when the config requests them, with their respective speeds —
// the "two copies of the input wave" of §3.1 whose 60 % data overlap the
// prism exists to eliminate.
func (s *Structure) ImpulseResponse(src, dst Vec3, cfg ImpulseConfig) []Arrival {
	lx, ly, lz := s.Length, s.Height, s.Thickness
	if s.Shape == Cylinder {
		lx, ly, lz = s.Diameter, s.Height, s.Diameter
	}
	if lx <= 0 || ly <= 0 || lz <= 0 {
		return nil
	}
	rAir := math.Abs(s.ReflectionCoefficientToAir())
	bounceLoss := rAir * units.FromAmplitudeDB(-s.SurfaceLossDB)
	attDBPerM := s.Material.AttenuationAt(cfg.Frequency)

	type modeSpec struct {
		frac float64
		// speed of the mode in m/s.
		//
		//ecolint:unit m/s
		speed float64
		shear bool
	}
	modes := make([]modeSpec, 0, 2)
	if cfg.PFraction > 0 && s.Material.VP() > 0 {
		modes = append(modes, modeSpec{cfg.PFraction, s.Material.VP(), false})
	}
	if cfg.SFraction > 0 && s.Material.SupportsShear() {
		modes = append(modes, modeSpec{cfg.SFraction, s.Material.VS(), true})
	}
	if len(modes) == 0 {
		return nil
	}

	var arrivals []Arrival
	n := cfg.MaxOrder
	for i := -n; i <= n; i++ {
		for j := -n; j <= n; j++ {
			for k := -n; k <= n; k++ {
				img := imagePoint(src, i, j, k, lx, ly, lz)
				d := img.Dist(dst)
				bounces := abs(i) + abs(j) + abs(k)
				ref := 0.05
				dd := d
				if dd < ref {
					dd = ref
				}
				spread := ref / dd
				for _, m := range modes {
					gain := m.frac * spread *
						math.Pow(bounceLoss, float64(bounces)) *
						units.FromAmplitudeDB(-attDBPerM*d)
					if gain < cfg.MinGain {
						continue
					}
					arrivals = append(arrivals, Arrival{
						Delay:   d / m.speed,
						Gain:    gain,
						Bounces: bounces,
						Shear:   m.shear,
					})
				}
			}
		}
	}
	sort.Slice(arrivals, func(a, b int) bool {
		if arrivals[a].Delay < arrivals[b].Delay {
			return true
		}
		if arrivals[b].Delay < arrivals[a].Delay {
			return false
		}
		// A source on a boundary face has a coincident mirror image with
		// identical delay; order the lower-bounce (stronger) copy first.
		return arrivals[a].Bounces < arrivals[b].Bounces
	})
	return arrivals
}

// imagePoint mirrors src across the box boundaries i, j, k times along the
// three axes (standard image-source construction).
func imagePoint(p Vec3, i, j, k int, lx, ly, lz float64) Vec3 {
	return Vec3{
		X: mirror(p.X, i, lx),
		Y: mirror(p.Y, j, ly),
		Z: mirror(p.Z, k, lz),
	}
}

func mirror(x float64, n int, l float64) float64 {
	if n%2 == 0 {
		return float64(n)*l + x
	}
	return float64(n)*l + (l - x)
}

func abs(i int) int {
	if i < 0 {
		return -i
	}
	return i
}

// TotalEnergy sums the squared gains of the arrivals — proportional to the
// power the receiving PZT harvests from the reverberant field.
//
//ecolint:unit return dimensionless
func TotalEnergy(arrivals []Arrival) float64 {
	var e float64
	for _, a := range arrivals {
		e += a.Gain * a.Gain
	}
	return e
}

// DelaySpread returns the RMS delay spread of the arrivals (seconds), the
// quantity that bounds the usable symbol rate before inter-symbol
// interference dominates.
//
//ecolint:unit return s
func DelaySpread(arrivals []Arrival) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	var pTot, mean float64
	for _, a := range arrivals {
		p := a.Gain * a.Gain
		pTot += p
		mean += p * a.Delay
	}
	if pTot == 0 {
		return 0
	}
	mean /= pTot
	var varAcc float64
	for _, a := range arrivals {
		p := a.Gain * a.Gain
		d := a.Delay - mean
		varAcc += p * d * d
	}
	return math.Sqrt(varAcc / pTot)
}
