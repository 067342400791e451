// Package channel simulates the in-concrete acoustic link: it convolves
// transmitted waveforms with the multipath impulse response from the
// image-source model, applies the concrete's frequency-selective resonance
// (Fig. 5b) and adds calibrated Gaussian noise. The reader's
// self-interference (the CBW leakage that is ~10× stronger than the
// backscatter, §3.4) is not modelled here: the reader adds it to its
// capture itself.
package channel

import (
	"errors"
	"fmt"
	"math"

	"ecocapsule/internal/dsp"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
)

// Config describes one point-to-point acoustic channel.
type Config struct {
	// Structure hosting the link.
	Structure *geometry.Structure
	// Source is the injection point (reader TX footprint on the surface).
	Source geometry.Vec3
	// Destination is the receiver position (embedded node or reader RX).
	Destination geometry.Vec3
	// SampleRate of the simulation in Hz (default 1 MS/s).
	//
	//ecolint:unit hz
	SampleRate float64
	// CarrierFrequency the link is tuned to (Hz), used for attenuation and
	// the resonance response.
	//
	//ecolint:unit hz
	CarrierFrequency float64
	// PrismAngle is the incidence angle of the injected wave in radians.
	// Zero means the PZT is glued directly to the surface (P-only).
	PrismAngle float64
	// Prism material; nil defaults to PLA.
	Prism *material.Material
	// NoiseFloor is the RMS amplitude of the ambient acoustic noise at the
	// receiver, in the same units as the transmitted amplitude.
	NoiseFloor float64
	// Seed for the deterministic noise source.
	Seed int64
	// MaxOrder overrides the image-source reflection order (0 = default).
	MaxOrder int
}

// Channel is a ready-to-use link simulator.
type Channel struct {
	cfg      Config
	arrivals []geometry.Arrival
	noise    *dsp.NoiseSource
	// resGain is the material resonance gain at the carrier (0..1).
	//
	//ecolint:unit dimensionless
	resGain float64
	// conv is the tapped-delay line over arrivals (raw gains). A
	// cache-backed channel shares arrivals and conv with its cache entry;
	// AddScatterers replaces both with channel-local ones.
	conv *dsp.Convolver
}

// ErrNoPath is returned when no propagation path exists (e.g. all modes cut
// off beyond the second critical angle).
var ErrNoPath = errors.New("channel: no propagating body-wave path")

var errNilStructure = errors.New("channel: nil structure")

// New constructs a channel. It computes the mode split at the prism
// boundary from the incidence angle (Fig. 4), expands the image-source
// response, and folds in the prism transmission loss.
func New(cfg Config) (*Channel, error) {
	if cfg.Structure == nil {
		return nil, errNilStructure
	}
	cfg = normalize(cfg)
	arr, res, err := response(cfg)
	if err != nil {
		return nil, err
	}
	c := &Channel{
		cfg:      cfg,
		arrivals: arr,
		noise:    dsp.NewNoiseSource(cfg.Seed),
		resGain:  res,
	}
	c.rebuildConvolver()
	return c, nil
}

// LinkGain returns the path gain New(cfg).PathGain() reports, bit for bit,
// without building the channel: no convolver, no noise source, and the
// arrival list is dropped once summed. It counts the link on
// ecocapsule_channel_links_total and ecocapsule_channel_path_gain, so a
// reader calls it once per link it deploys.
//
//ecolint:unit return dimensionless
func LinkGain(cfg Config) (float64, error) {
	if cfg.Structure == nil {
		return 0, errNilStructure
	}
	arr, res, err := response(normalize(cfg))
	if err != nil {
		return 0, err
	}
	g := pathGain(arr, res)
	mLinks.Inc()
	mPathGain.Observe(g)
	return g, nil
}

// response is the clean multipath response of a normalised config: the
// image-source arrivals, sorted by delay, and the material resonance gain
// at the carrier. New and LinkGain share it, so both see the same floats.
func response(cfg Config) ([]geometry.Arrival, float64, error) {
	prism := cfg.Prism
	var pFrac, sFrac, couple float64
	if cfg.PrismAngle == 0 {
		// Direct adhesion: pure P injection, strong coupling (no prism
		// interface loss beyond the PZT/concrete bond) — but the energy is
		// confined to the narrow ≈11° beam cone of §3.2 (Fig. 3a). A
		// receiver off the beam axis only sees scattered leakage, which is
		// exactly why the wave prism exists.
		pFrac, sFrac = 1, 0
		couple = 0.95 * beamConeWeight(cfg)
	} else {
		b := physics.Boundary{From: prism, To: cfg.Structure.Material}
		pFrac, sFrac = b.ModeAmplitudes(cfg.PrismAngle)
		if pFrac == 0 && sFrac == 0 {
			return nil, 0, fmt.Errorf("%w: incidence %.1f° beyond second critical angle",
				ErrNoPath, units.Rad2Deg(cfg.PrismAngle))
		}
		// Prism → structure energy coupling (eq. 1 with the PLA impedance).
		couple = math.Sqrt(physics.TransmissionEnergyFraction(prism, cfg.Structure.Material))
	}

	icfg := geometry.ImpulseConfig{
		Frequency: cfg.CarrierFrequency,
		MaxOrder:  cfg.MaxOrder,
		MinGain:   1e-8,
		PFraction: pFrac * couple,
		SFraction: sFrac * couple,
	}
	if icfg.MaxOrder == 0 {
		icfg.MaxOrder = 3
	}
	arr := cfg.Structure.ImpulseResponse(cfg.Source, cfg.Destination, icfg)
	if len(arr) == 0 {
		return nil, 0, ErrNoPath
	}
	m := cfg.Structure.Material
	res := 1.0
	if m.ResonantFrequency > 0 {
		peak := m.FrequencyResponse(m.ResonantFrequency)
		if peak > 0 {
			res = m.FrequencyResponse(cfg.CarrierFrequency) / peak
		}
	}
	return arr, res, nil
}

// beamConeWeight models the directivity of a PZT glued straight onto the
// surface: a Gaussian main lobe of the transducer's half-beam angle plus a
// diffuse leakage floor from surface scattering. The beam axis is the
// inward surface normal at the source.
func beamConeWeight(cfg Config) float64 {
	dir := cfg.Destination.Sub(cfg.Source)
	n := dir.Norm()
	if n == 0 {
		return 1
	}
	// The injection face is whichever boundary the source sits on; the
	// beam fires along its inward normal. The common case is the z=0 (or
	// z=thickness) face of a wall/slab.
	axisZ := 1.0
	if cfg.Structure.Thickness > 0 && cfg.Source.Z > cfg.Structure.Thickness/2 {
		axisZ = -1
	}
	cosTheta := dir.Z * axisZ / n
	if cosTheta < -1 {
		cosTheta = -1
	} else if cosTheta > 1 {
		cosTheta = 1
	}
	theta := math.Acos(cosTheta)
	alpha := physics.TransducerHalfBeamAngle(cfg.Structure.Material.VP(),
		cfg.CarrierFrequency, 40e-3)
	const leak = 0.3 // diffuse scattering floor
	x := theta / alpha
	return leak + (1-leak)*math.Exp(-x*x/2)
}

// Arrivals exposes the multipath response (sorted by delay).
func (c *Channel) Arrivals() []geometry.Arrival { return c.arrivals }

// ResonanceGain returns the material's relative response at the carrier.
func (c *Channel) ResonanceGain() float64 { return c.resGain }

// PathGain returns the aggregate linear amplitude gain of the channel —
// the coherent-power sum of all arrivals times the resonance response.
// This is the scalar the energy-harvesting model consumes.
//
//ecolint:unit return dimensionless
func (c *Channel) PathGain() float64 { return pathGain(c.arrivals, c.resGain) }

// pathGain is the coherent-power sum of arrivals times the resonance gain.
//
//ecolint:unit return dimensionless
func pathGain(arrivals []geometry.Arrival, resGain float64) float64 {
	return math.Sqrt(geometry.TotalEnergy(arrivals)) * resGain
}

// DelaySpread returns the RMS delay spread of the response in seconds.
//
//ecolint:unit return s
func (c *Channel) DelaySpread() float64 { return geometry.DelaySpread(c.arrivals) }

// rebuildConvolver snapshots the arrival list into the sparse convolver's
// taps. Tap offsets are rounded to the nearest sample, so an
// arrival landing exactly on a sample boundary is placed there rather than
// truncated a sample early, and the output length derived from the last tap
// always covers the final arrival in full.
func (c *Channel) rebuildConvolver() {
	fs := c.cfg.SampleRate
	offs := make([]int, len(c.arrivals))
	gains := make([]float64, len(c.arrivals))
	for i, a := range c.arrivals {
		offs[i] = int(math.Round(a.Delay * fs))
		gains[i] = a.Gain
	}
	c.conv = dsp.NewSparseConvolver(offs, gains)
}

// Transmit convolves x with the tapped-delay-line impulse response, applies
// the resonance gain, and adds the configured noise floor. The output is
// extended by the channel's maximum delay (rounded to the nearest sample),
// so the final arrival is never truncated. Arrivals that land on one sample
// share a tap, so a wall link's few hundred arrivals make about 85 taps,
// which the convolver's blocked direct kernel sweeps over the input.
func (c *Channel) Transmit(x []float64) []float64 { return c.TransmitInto(nil, x) }

// TransmitInto is Transmit writing the received waveform into dst's storage
// when its capacity holds it (a new slice otherwise). dst must not overlap
// x.
func (c *Channel) TransmitInto(dst, x []float64) []float64 {
	if len(x) == 0 {
		return dst[:0]
	}
	mTransmits.Inc()
	n := c.conv.OutLen(len(x))
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	clear(out)
	c.conv.ApplyTo(out, x)
	for i := range out {
		out[i] *= c.resGain
	}
	if c.cfg.NoiseFloor > 0 {
		c.noise.AddAWGN(out, c.cfg.NoiseFloor)
	}
	return out
}

// ToneResponse returns the steady-state amplitude gain the channel applies
// to a continuous tone at frequency f: the magnitude of the frequency
// response of the tapped-delay line at f, times the material resonance
// curve evaluated at f (normalised to its value at the carrier).
//
//ecolint:unit f hz
//ecolint:unit return dimensionless
func (c *Channel) ToneResponse(f float64) float64 {
	var re, im float64
	for _, a := range c.arrivals {
		ph := -2 * math.Pi * f * a.Delay
		re += a.Gain * math.Cos(ph)
		im += a.Gain * math.Sin(ph)
	}
	h := math.Hypot(re, im)
	m := c.cfg.Structure.Material
	if m.ResonantFrequency > 0 {
		peak := m.FrequencyResponse(m.ResonantFrequency)
		if peak > 0 {
			h *= m.FrequencyResponse(f) / peak
		}
	}
	return h
}

// SNRAt estimates the link SNR in dB for a transmitted tone of the given
// RMS amplitude at the carrier, against the configured noise floor.
//
//ecolint:unit return db
func (c *Channel) SNRAt(txRMS float64) float64 {
	if c.cfg.NoiseFloor <= 0 {
		return math.Inf(1)
	}
	rx := txRMS * c.PathGain()
	return units.DB((rx * rx) / (c.cfg.NoiseFloor * c.cfg.NoiseFloor))
}
