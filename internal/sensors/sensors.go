// Package sensors models the in-concrete sensing payloads of an EcoCapsule
// (§4.2): an integrated temperature + internal-relative-humidity (IRH)
// sensor in the style of the AHT10, a full-bridge strain gauge bonded to
// the shell, and an accelerometer. Each sensor exposes a common Sensor
// interface that samples a physical Environment and frames readings the way
// the node's MCU would (fixed-point over an I²C-style register map).
package sensors

import (
	"encoding/binary"
	"fmt"
	"math"

	"ecocapsule/internal/dsp"
	"ecocapsule/internal/units"
)

// Environment is the ground-truth physical state at a capsule's location,
// updated by whatever drives the simulation (a structure model, the
// footbridge simulator, or a test).
type Environment struct {
	// TemperatureC is the internal concrete temperature in °C.
	TemperatureC float64
	// RelativeHumidity is the internal relative humidity in percent.
	RelativeHumidity float64
	// StrainX, StrainY are the two-directional internal strains
	// (dimensionless, e.g. 1e-6 = 1 µε).
	//
	//ecolint:unit dimensionless
	StrainX, StrainY float64
	// AccelerationMS2 is the instantaneous structural acceleration, m/s².
	//
	//ecolint:unit m/s^2
	AccelerationMS2 float64
	// StressMPa is the internal stress in MPa (negative = compression).
	StressMPa float64
}

// Reading is one framed sensor measurement: its wire bytes. The sensor
// type travels in the uplink frame's kind byte, and Decode recovers the
// physical values.
type Reading struct {
	// Raw is the wire representation the node uplinks.
	Raw []byte
}

// SensorType enumerates the supported payloads.
type SensorType byte

const (
	// TypeTempHumidity is the AHT10-style combined sensor.
	TypeTempHumidity SensorType = 0x01
	// TypeStrain is the BFH1K-style full-bridge strain gauge.
	TypeStrain SensorType = 0x02
	// TypeAccelerometer is the acceleration payload.
	TypeAccelerometer SensorType = 0x03
)

func (s SensorType) String() string {
	switch s {
	case TypeTempHumidity:
		return "temp-humidity"
	case TypeStrain:
		return "strain"
	case TypeAccelerometer:
		return "accelerometer"
	default:
		return fmt.Sprintf("SensorType(%#02x)", byte(s))
	}
}

// Sensor is a capsule payload: it samples the environment and produces a
// framed reading.
type Sensor interface {
	// Type returns the sensor's wire type.
	Type() SensorType
	// Sample measures the environment (with the sensor's own noise) and
	// returns a framed reading.
	Sample(env Environment) Reading
	// PowerDraw returns the sensor's active supply power in watts.
	PowerDraw() float64
}

// TempHumiditySensor models an AHT10-class integrated sensor: 20-bit
// fixed-point framing, ±0.3 °C and ±2 %RH accuracy.
type TempHumiditySensor struct {
	noise *dsp.NoiseSource
}

// NewTempHumidity returns a sensor with deterministic noise.
func NewTempHumidity(seed int64) *TempHumiditySensor {
	return &TempHumiditySensor{noise: dsp.NewNoiseSource(seed)}
}

// Type implements Sensor.
func (s *TempHumiditySensor) Type() SensorType { return TypeTempHumidity }

// PowerDraw implements Sensor (the AHT10 measures at ≈ 0.25 mA @1.8 V but
// duty-cycles hard; we charge the averaged figure).
//
//ecolint:unit return w
func (s *TempHumiditySensor) PowerDraw() float64 { return 23 * units.UW }

// Sample implements Sensor: AHT10 framing packs humidity and temperature
// into 20-bit fields: RH = raw/2^20·100, T = raw/2^20·200 − 50.
func (s *TempHumiditySensor) Sample(env Environment) Reading {
	tMeas := env.TemperatureC + s.noise.Gaussian(0.15)
	hMeas := env.RelativeHumidity + s.noise.Gaussian(1.0)
	hMeas = clamp(hMeas, 0, 100)
	tMeas = clamp(tMeas, -50, 150)

	rawH := uint32(hMeas / 100 * (1 << 20))
	rawT := uint32((tMeas + 50) / 200 * (1 << 20))
	// Saturate full-scale readings inside the 20-bit fields: 100 %RH must
	// encode as the all-ones code, not overflow into the next field.
	const maxRaw = 1<<20 - 1
	if rawH > maxRaw {
		rawH = maxRaw
	}
	if rawT > maxRaw {
		rawT = maxRaw
	}
	// 5-byte AHT10-style payload: HHHHH HHHHH HHHHH HHHHH TTTT TTTT ...
	buf := make([]byte, 5)
	buf[0] = byte(rawH >> 12)
	buf[1] = byte(rawH >> 4)
	buf[2] = byte(rawH<<4) | byte(rawT>>16)
	buf[3] = byte(rawT >> 8)
	buf[4] = byte(rawT)
	return Reading{Raw: buf}
}

// DecodeTempHumidity reverses the AHT10 framing.
func DecodeTempHumidity(raw []byte) (tempC, rh float64, err error) {
	if len(raw) != 5 {
		return 0, 0, fmt.Errorf("sensors: temp-humidity payload must be 5 bytes, got %d", len(raw))
	}
	rawH := uint32(raw[0])<<12 | uint32(raw[1])<<4 | uint32(raw[2])>>4
	rawT := (uint32(raw[2])&0x0F)<<16 | uint32(raw[3])<<8 | uint32(raw[4])
	rh = float64(rawH) / (1 << 20) * 100
	tempC = float64(rawT)/(1<<20)*200 - 50
	return tempC, rh, nil
}

// StrainSensor models the BFH1K-3EB full-bridge gauge measuring the
// two-directional internal strain through the shell (§4.2).
type StrainSensor struct {
	noise *dsp.NoiseSource
	// GaugeFactor converts strain to bridge imbalance.
	GaugeFactor float64
}

// NewStrain returns a strain sensor with deterministic noise.
func NewStrain(seed int64) *StrainSensor {
	return &StrainSensor{noise: dsp.NewNoiseSource(seed), GaugeFactor: 2.0}
}

// Type implements Sensor.
func (s *StrainSensor) Type() SensorType { return TypeStrain }

// PowerDraw implements Sensor (bridge excitation dominates).
//
//ecolint:unit return w
func (s *StrainSensor) PowerDraw() float64 { return 45 * units.UW }

// Sample implements Sensor: two int24 micro-strain fields.
func (s *StrainSensor) Sample(env Environment) Reading {
	x := env.StrainX + s.noise.Gaussian(0.5*units.UE)
	y := env.StrainY + s.noise.Gaussian(0.5*units.UE)
	buf := make([]byte, 8)
	binary.BigEndian.PutUint32(buf[0:4], uint32(int32(x*1e9)))
	binary.BigEndian.PutUint32(buf[4:8], uint32(int32(y*1e9)))
	return Reading{Raw: buf}
}

// DecodeStrain reverses the strain framing, returning the two strains.
func DecodeStrain(raw []byte) (x, y float64, err error) {
	if len(raw) != 8 {
		return 0, 0, fmt.Errorf("sensors: strain payload must be 8 bytes, got %d", len(raw))
	}
	x = float64(int32(binary.BigEndian.Uint32(raw[0:4]))) / 1e9
	y = float64(int32(binary.BigEndian.Uint32(raw[4:8]))) / 1e9
	return x, y, nil
}

// Accelerometer models the acceleration payload used in the footbridge
// pilot (§6): a single-axis MEMS channel in m/s².
type Accelerometer struct {
	noise *dsp.NoiseSource
	// NoiseDensity is the RMS noise in m/s².
	//
	//ecolint:unit m/s^2
	NoiseDensity float64
}

// NewAccelerometer returns an accelerometer with deterministic noise.
func NewAccelerometer(seed int64) *Accelerometer {
	return &Accelerometer{noise: dsp.NewNoiseSource(seed), NoiseDensity: 0.002}
}

// Type implements Sensor.
func (a *Accelerometer) Type() SensorType { return TypeAccelerometer }

// PowerDraw implements Sensor.
//
//ecolint:unit return w
func (a *Accelerometer) PowerDraw() float64 { return 30 * units.UW }

// Sample implements Sensor: int32 micro-m/s² field plus the stress channel
// (int16 in 0.1 MPa steps) since the pilot reports both.
func (a *Accelerometer) Sample(env Environment) Reading {
	acc := env.AccelerationMS2 + a.noise.Gaussian(a.NoiseDensity)
	stress := env.StressMPa + a.noise.Gaussian(0.1)
	buf := make([]byte, 6)
	binary.BigEndian.PutUint32(buf[0:4], uint32(int32(acc*1e6)))
	binary.BigEndian.PutUint16(buf[4:6], uint16(int16(stress*10)))
	return Reading{Raw: buf}
}

// DecodeAccelerometer reverses the acceleration framing.
func DecodeAccelerometer(raw []byte) (accel, stressMPa float64, err error) {
	if len(raw) != 6 {
		return 0, 0, fmt.Errorf("sensors: accelerometer payload must be 6 bytes, got %d", len(raw))
	}
	accel = float64(int32(binary.BigEndian.Uint32(raw[0:4]))) / 1e6
	stressMPa = float64(int16(binary.BigEndian.Uint16(raw[4:6]))) / 10
	return accel, stressMPa, nil
}

// Decode dispatches on the sensor type and returns the physical values.
func Decode(t SensorType, raw []byte) ([]float64, error) {
	switch t {
	case TypeTempHumidity:
		a, b, err := DecodeTempHumidity(raw)
		return []float64{a, b}, err
	case TypeStrain:
		a, b, err := DecodeStrain(raw)
		return []float64{a, b}, err
	case TypeAccelerometer:
		a, b, err := DecodeAccelerometer(raw)
		return []float64{a, b}, err
	default:
		return nil, fmt.Errorf("sensors: unknown sensor type %#02x", byte(t))
	}
}

func clamp(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
