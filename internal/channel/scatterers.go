package channel

import (
	"fmt"
	"math"
	"slices"

	"ecocapsule/internal/dsp"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/units"
)

// §3.5(2): the internal structure of real concrete — steel reinforcement
// bars, irregular gravel, and air cavities from the casting process — acts
// on the acoustic wave like reflectors act on RF: extra reflection and
// diffraction paths that change direction, frequency content, and
// intensity. "Such foreign objects make up only a small portion of the
// concrete and cannot cause strong interference in most cases", and
// "fine-tuning the frequency can significantly improve the channel when it
// deteriorates". This file models both the scatterers and the tuner.

// ScattererKind enumerates the foreign-object classes of §3.5(2).
type ScattererKind int

// Scatterer classes.
const (
	// Rebar is a steel reinforcement bar: a strong, specular reflector.
	Rebar ScattererKind = iota
	// Gravel is an irregular aggregate particle: weak diffuse scattering.
	Gravel
	// Cavity is an entrapped air void: a strong reflector (near-total
	// impedance mismatch) but small cross-section.
	Cavity
)

func (k ScattererKind) String() string {
	switch k {
	case Rebar:
		return "rebar"
	case Gravel:
		return "gravel"
	case Cavity:
		return "cavity"
	default:
		return fmt.Sprintf("ScattererKind(%d)", int(k))
	}
}

// Scatterer is one foreign object inside the structure.
type Scatterer struct {
	Kind     ScattererKind
	Position geometry.Vec3
	// Size is the characteristic dimension in metres (bar diameter,
	// particle size, void diameter).
	Size float64
}

// reflectivity is the amplitude fraction the object re-radiates.
func (s Scatterer) reflectivity() float64 {
	switch s.Kind {
	case Rebar:
		// Steel/concrete impedance mismatch ≈ (46.6−9.4)/(46.6+9.4)·size term.
		return 0.55
	case Cavity:
		// Air void: near-total reflection but tiny aperture.
		return 0.95
	default:
		// Gravel is acoustically close to mortar.
		return 0.12
	}
}

// AddScatterers augments the channel with single-bounce scatter paths:
// source → scatterer → destination for every object, with a gain set by
// the object's reflectivity, its cross-section relative to the wavelength,
// and the two-leg spreading/absorption. Call after New and before use.
func (c *Channel) AddScatterers(objs []Scatterer) {
	if len(objs) == 0 {
		return
	}
	// Scatterer state is channel-local. The arrival list may be a cache
	// entry's, shared with sibling channels, and sortArrivals sorts in
	// place, so work on a copy; the entry keeps the clean response.
	c.arrivals = slices.Clone(c.arrivals)
	m := c.cfg.Structure.Material
	speed := m.VS()
	shear := true
	if speed == 0 {
		speed = m.VP()
		shear = false
	}
	if speed == 0 {
		return
	}
	lambda := speed / c.cfg.CarrierFrequency
	att := m.AttenuationAt(c.cfg.CarrierFrequency)
	src, dst := c.cfg.Source, c.cfg.Destination
	ref := 0.05
	for _, o := range objs {
		d1 := src.Dist(o.Position)
		d2 := o.Position.Dist(dst)
		total := d1 + d2
		if total <= 0 {
			continue
		}
		// Rayleigh-to-specular cross-section: objects much smaller than
		// the wavelength scatter weakly (∝ (size/λ)²), saturating at 1.
		xsec := o.Size / lambda
		if xsec > 1 {
			xsec = 1
		}
		xsec *= xsec
		dd := total
		if dd < ref {
			dd = ref
		}
		gain := o.reflectivity() * xsec * (ref / dd) *
			units.FromAmplitudeDB(-att*total)
		if gain < 1e-8 {
			continue
		}
		c.arrivals = append(c.arrivals, geometry.Arrival{
			Delay:   total / speed,
			Gain:    gain,
			Bounces: 1,
			Shear:   shear,
		})
	}
	// Keep the arrival list sorted by delay for Transmit, and refresh the
	// convolution engine so the new taps take effect.
	sortArrivals(c.arrivals)
	c.rebuildConvolver()
}

func sortArrivals(a []geometry.Arrival) {
	// Insertion sort: scatterer lists are short and the base response is
	// already ordered.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].Delay < a[j-1].Delay; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TuneCarrier implements the §3.5(2) remedy: sweep candidate carriers
// around the nominal frequency and return the one with the strongest
// steady-state tone response — "fine-tuning the frequency can
// significantly improve the channel". The sweep covers ±span around the
// current carrier in the given step (both Hz).
func (c *Channel) TuneCarrier(span, stepHz float64) (bestFreq, bestGain float64) {
	f0 := c.cfg.CarrierFrequency
	if stepHz <= 0 {
		stepHz = 1 * units.KHz
	}
	if span <= 0 {
		span = 10 * units.KHz
	}
	bestFreq, bestGain = f0, c.ToneResponse(f0)
	for f := f0 - span; f <= f0+span; f += stepHz {
		if f <= 0 {
			continue
		}
		if g := c.ToneResponse(f); g > bestGain {
			bestFreq, bestGain = f, g
		}
	}
	return bestFreq, bestGain
}

// FadeDepth quantifies how badly the multipath carves the channel at the
// nominal carrier: the ratio (dB) between the best response in ±span and
// the response at the carrier. Large values mean the §3.5 fine-tuning
// recovers significant SNR.
func (c *Channel) FadeDepth(span float64) float64 {
	_, best := c.TuneCarrier(span, 500)
	at := c.ToneResponse(c.cfg.CarrierFrequency)
	if at <= 0 {
		return math.Inf(1)
	}
	return units.DB((best * best) / (at * at))
}

// RandomScatterers generates a reproducible population of foreign objects
// inside the structure: count objects with the published mix of kinds
// (rebar dominates reinforced walls; gravel dominates NC).
func RandomScatterers(s *geometry.Structure, count int, seed int64) []Scatterer {
	if count <= 0 {
		return nil
	}
	rng := dsp.NewNoiseSource(seed)
	out := make([]Scatterer, 0, count)
	lx, ly, lz := s.Length, s.Height, s.Thickness
	if s.Shape == geometry.Cylinder {
		lx, ly, lz = s.Diameter, s.Height, s.Diameter
	}
	for i := 0; i < count; i++ {
		var kind ScattererKind
		var size float64
		switch r := rng.Uniform(); {
		case r < 0.3:
			kind = Rebar
			size = 0.012 + 0.02*rng.Uniform() // 12–32 mm bars
		case r < 0.85:
			kind = Gravel
			size = 0.005 + 0.02*rng.Uniform()
		default:
			kind = Cavity
			size = 0.002 + 0.008*rng.Uniform()
		}
		out = append(out, Scatterer{
			Kind: kind,
			Position: geometry.Vec3{
				X: rng.Uniform() * lx,
				Y: rng.Uniform() * ly,
				Z: rng.Uniform() * lz,
			},
			Size: size,
		})
	}
	return out
}
