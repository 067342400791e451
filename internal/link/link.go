// Package link provides end-to-end link-level simulation harnesses for the
// evaluation experiments: Monte-Carlo BER-vs-SNR sweeps of the FM0 uplink
// (Fig. 15), the SNR-vs-bitrate behaviour bounded by the channel's ring-down
// and carrier bandwidth (Fig. 16), and throughput measurements per concrete
// type (Fig. 17). Three link profiles are modelled: EcoCapsule (230 kHz
// in-concrete), PAB (15 kHz underwater backscatter, the SIGCOMM'19
// baseline), and U²B (ultra-wideband underwater backscatter).
package link

import (
	"math"

	"ecocapsule/internal/coding"
	"ecocapsule/internal/conc"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/material"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
)

// Profile characterises one backscatter link family.
type Profile struct {
	Name string
	// CarrierHz of the power/backscatter carrier.
	//ecolint:unit hz
	CarrierHz float64
	// UsableBandwidthHz the carrier can piggyback: "a carrier with a
	// higher frequency can piggyback a wider data band" (§5.3).
	//ecolint:unit hz
	UsableBandwidthHz float64
	// ReferenceSNRdB is the link SNR at 1 kbps under the experiment's
	// nominal geometry.
	ReferenceSNRdB float64
	// RingDownTime is the channel's reverberation/tail time constant in
	// seconds; symbols shorter than this suffer ISI.
	RingDownTime float64
	// DecoderPenaltyDB shifts the BER waterfall (FM0 implementation and
	// synchronisation quality differences).
	DecoderPenaltyDB float64
}

// EcoCapsuleProfile is the in-concrete link of this paper: SNR holds to
// ≈13 kbps then collapses (Fig. 16), BER floor reached by ≈8 dB (Fig. 15).
func EcoCapsuleProfile() Profile {
	return Profile{
		Name:              "EcoCapsule",
		CarrierHz:         physics.CarrierHz,
		UsableBandwidthHz: 13 * units.KHz,
		ReferenceSNRdB:    16,
		RingDownTime:      20e-6,
		DecoderPenaltyDB:  0,
	}
}

// PABProfile is the underwater baseline: 15 kHz carrier limits it to
// ≈3 kbps; its BER floor needs ≈11 dB.
func PABProfile() Profile {
	return Profile{
		Name:              "PAB",
		CarrierHz:         15 * units.KHz,
		UsableBandwidthHz: 3 * units.KHz,
		ReferenceSNRdB:    15,
		RingDownTime:      100e-6,
		DecoderPenaltyDB:  3,
	}
}

// U2BProfile is the ultra-wideband underwater comparator: lower SNR at low
// bitrates but a much wider band, overtaking EcoCapsule beyond ≈9 kbps.
func U2BProfile() Profile {
	return Profile{
		Name:              "U2B",
		CarrierHz:         30 * units.KHz,
		UsableBandwidthHz: 28 * units.KHz,
		ReferenceSNRdB:    13,
		RingDownTime:      18e-6,
		DecoderPenaltyDB:  1,
	}
}

// SNRAtBitrate returns the uplink SNR (dB) at the given bitrate (bit/s) for
// this profile — the Fig. 16 curves. Two effects stack:
//
//   - matched-filter noise bandwidth grows with the bitrate: −10·log10(R/1k);
//   - once the symbol window shrinks into the channel ring-down (or the
//     band exceeds the carrier's usable bandwidth) ISI collapses the SNR.
func (p Profile) SNRAtBitrate(bitrate float64) float64 {
	if bitrate <= 0 {
		return p.ReferenceSNRdB
	}
	snr := p.ReferenceSNRdB - 4*math.Log10(bitrate/1000)
	// ISI knee at the usable bandwidth: a soft cliff beyond it.
	x := bitrate / p.UsableBandwidthHz
	if x > 0.85 {
		snr -= 18 * (x - 0.85) * (x - 0.85) / (0.15 * 0.15) * 0.2
	}
	if x > 1 {
		snr -= 25 * (x - 1)
	}
	// Ring-down ISI: symbol duration below ~3 ring-down constants hurts.
	sym := 1 / bitrate
	if sym < 3*p.RingDownTime {
		snr -= 10 * (3*p.RingDownTime/sym - 1)
	}
	return snr
}

// MaxBitrate returns the highest bitrate (bit/s) that keeps the SNR above
// the decodability floor (≈3 dB, where Fig. 16 shows the collapse).
func (p Profile) MaxBitrate() float64 {
	const floor = 3.0
	lo, hi := 100.0, 40*units.KHz
	if p.SNRAtBitrate(hi) > floor {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if p.SNRAtBitrate(mid) > floor {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// BERResult is one Monte-Carlo point.
type BERResult struct {
	SNRdB    float64
	BitsSent int
	BitErrs  int
}

// BER returns the measured bit error rate (0.5 for empty runs).
func (r BERResult) BER() float64 {
	if r.BitsSent == 0 {
		return 0.5
	}
	return float64(r.BitErrs) / float64(r.BitsSent)
}

// MeasureBER runs a Monte-Carlo FM0 uplink at the given SNR (dB, per-bit)
// until maxBits have been sent or enough errors have accumulated for a
// stable estimate. The profile's decoder penalty shifts the effective SNR.
func MeasureBER(p Profile, snrDB float64, maxBits int, seed int64) BERResult {
	eff := snrDB - p.DecoderPenaltyDB
	// Per-half-symbol noise sigma for unit-amplitude halves: each bit has
	// two halves, so Eb = 2·(1)²·T/2 per half... with unit halves and two
	// halves per bit, SNR per bit = 2/(2σ²) = 1/σ².
	sigma := math.Pow(10, -eff/20)
	noise := dsp.NewNoiseSource(seed)
	const chunk = 512
	res := BERResult{SNRdB: snrDB}
	bits := make([]byte, chunk)
	for res.BitsSent < maxBits {
		for i := range bits {
			bits[i] = byte(noise.Intn(2))
		}
		halves, err := coding.FM0Encode(bits)
		if err != nil {
			break
		}
		for i := range halves {
			halves[i] += noise.Gaussian(sigma)
		}
		got := coding.FM0DecodeML(halves)
		for i := range bits {
			if got[i] != bits[i] {
				res.BitErrs++
			}
		}
		res.BitsSent += len(bits)
		// Early exit once the estimate is stable.
		if res.BitErrs > 400 {
			break
		}
	}
	return res
}

// BERCurve sweeps SNR values and returns the waterfall (Fig. 15). The
// points are independent Monte-Carlo runs with per-point seeds, so they
// measure concurrently into indexed slots — same bytes as the serial sweep,
// a fraction of the wall clock.
func BERCurve(p Profile, snrsDB []float64, maxBits int, seed int64) []BERResult {
	out := make([]BERResult, len(snrsDB))
	conc.For(len(snrsDB), func(i int) {
		out[i] = MeasureBER(p, snrsDB[i], maxBits, seed+int64(i))
	})
	return out
}

// Throughput returns goodput in bit/s at the given bitrate: bits correctly
// decoded per second, i.e. R·(1−BER(SNR(R))) with the profile's SNR model.
func Throughput(p Profile, bitrate float64, seed int64) float64 {
	snr := p.SNRAtBitrate(bitrate)
	ber := MeasureBER(p, snr, 20000, seed).BER()
	return bitrate * (1 - ber)
}

// BestThroughput scans bitrates and returns (bestBitrate, bestGoodput) —
// the Fig. 17 measurement per concrete block. Each candidate bitrate is an
// independent measurement (NewNoiseSource per call), so the scan fans out
// and the winner is picked from the indexed results in ascending-bitrate
// order, exactly as the serial loop did.
func BestThroughput(p Profile, seed int64) (float64, float64) {
	var rates []float64
	for r := 1000.0; r <= 20000; r += 500 {
		rates = append(rates, r)
	}
	tps := make([]float64, len(rates))
	conc.For(len(rates), func(i int) {
		tps[i] = Throughput(p, rates[i], seed)
	})
	bestR, bestT := 0.0, 0.0
	for i, r := range rates {
		if tps[i] > bestT {
			bestR, bestT = r, tps[i]
		}
	}
	return bestR, bestT
}

// ProfileForConcrete derives an EcoCapsule profile embedded in the given
// concrete: stronger concrete (higher impedance, lower attenuation) buys a
// higher reference SNR and a slightly wider usable band — the ≈+2 kbps of
// UHPC/UHPFRC over NC in Fig. 17.
func ProfileForConcrete(m *material.Material) Profile {
	p := EcoCapsuleProfile()
	p.Name = "EcoCapsule/" + m.Name
	nc := material.NC()
	// Normalise against NC: response ratio in dB shifts the reference SNR.
	rel := m.PeakResponse / nc.PeakResponse
	p.ReferenceSNRdB += units.DB(rel) * 0.35
	p.UsableBandwidthHz = 13*units.KHz + 2*units.KHz*math.Log2(rel+0.001)/math.Log2(2.8)
	if p.UsableBandwidthHz < 10*units.KHz {
		p.UsableBandwidthHz = 10 * units.KHz
	}
	return p
}

// RangeModel computes the Fig. 12 range-vs-voltage curves analytically for
// the PAB pools (the concrete structures use reader.MaxPowerUpRange).
// Underwater spreading is spherical without strong confinement in Pool 1
// and corridor-guided in Pool 2.
type RangeModel struct {
	Name string
	// V0 is the voltage that powers a node at the reference 10 cm.
	V0 float64
	// Exponent of the distance-voltage law d ∝ (V/V0)^Exponent.
	Exponent float64
	// MaxRange caps the sweep at the pool length (m).
	MaxRange float64
}

// PABPool1Model: 19 cm at 50 V, 200 cm at 200 V — a steep super-linear
// growth (d ∝ V^1.7) as the multiplier escapes its dead zone.
func PABPool1Model() RangeModel {
	return RangeModel{Name: "PAB-pool1", V0: 34.3, Exponent: 1.7, MaxRange: 8}
}

// PABPool2Model: the elongated corridor pool — 23 cm needs 84 V but only
// 125 V reaches 6.5 m (§5.2): an extremely steep curve (d ∝ V^8.4) because
// the corridor keeps the wave collimated once it couples.
func PABPool2Model() RangeModel {
	return RangeModel{Name: "PAB-pool2", V0: 76.1, Exponent: 8.41, MaxRange: 12}
}

// RangeAt returns the maximum power-up range (m) at drive voltage v.
func (m RangeModel) RangeAt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	d := 0.1 * math.Pow(v/m.V0, m.Exponent)
	if d < 0 {
		d = 0
	}
	if d > m.MaxRange {
		d = m.MaxRange
	}
	return d
}
