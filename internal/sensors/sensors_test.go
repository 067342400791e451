package sensors

import (
	"math"
	"testing"
	"testing/quick"

	"ecocapsule/internal/dsp"
)

// sampledTempHumidity recomputes the pre-quantisation temperature and
// humidity a TempHumiditySensor samples from env, drawing from noise, a
// source seeded like the sensor's and advanced in step with it.
func sampledTempHumidity(noise *dsp.NoiseSource, env Environment) (tempC, rh float64) {
	tempC = env.TemperatureC + noise.Gaussian(0.15)
	rh = env.RelativeHumidity + noise.Gaussian(1.0)
	return clamp(tempC, -50, 150), clamp(rh, 0, 100)
}

func TestTempHumidityRoundTrip(t *testing.T) {
	s := NewTempHumidity(1)
	env := Environment{TemperatureC: 28.5, RelativeHumidity: 76.0}
	r := s.Sample(env)
	wantT, wantRH := sampledTempHumidity(dsp.NewNoiseSource(1), env)
	if len(r.Raw) != 5 {
		t.Fatalf("raw length %d, want 5", len(r.Raw))
	}
	tempC, rh, err := DecodeTempHumidity(r.Raw)
	if err != nil {
		t.Fatal(err)
	}
	// Decode matches the sampled (noisy) values within quantisation.
	if math.Abs(tempC-wantT) > 0.01 {
		t.Errorf("temp decode %.3f vs sampled %.3f", tempC, wantT)
	}
	if math.Abs(rh-wantRH) > 0.01 {
		t.Errorf("RH decode %.3f vs sampled %.3f", rh, wantRH)
	}
	// Noisy sample stays near ground truth.
	if math.Abs(tempC-env.TemperatureC) > 1 {
		t.Errorf("temp %.2f far from truth %.2f", tempC, env.TemperatureC)
	}
	if math.Abs(rh-env.RelativeHumidity) > 5 {
		t.Errorf("RH %.2f far from truth %.2f", rh, env.RelativeHumidity)
	}
}

func TestTempHumidityEncodeDecodeProperty(t *testing.T) {
	s := NewTempHumidity(7)
	noise := dsp.NewNoiseSource(7)
	f := func(rawT, rawH float64) bool {
		env := Environment{
			TemperatureC:     math.Mod(math.Abs(rawT), 80) - 10,
			RelativeHumidity: math.Mod(math.Abs(rawH), 100),
		}
		r := s.Sample(env)
		wantT, wantRH := sampledTempHumidity(noise, env)
		tempC, rh, err := DecodeTempHumidity(r.Raw)
		if err != nil {
			return false
		}
		return math.Abs(tempC-wantT) < 0.01 && math.Abs(rh-wantRH) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTempHumidityClamping(t *testing.T) {
	s := NewTempHumidity(2)
	noise := dsp.NewNoiseSource(2)
	for _, env := range []Environment{
		{TemperatureC: 500, RelativeHumidity: 150},
		{TemperatureC: -100, RelativeHumidity: -5},
	} {
		r := s.Sample(env)
		wantT, wantRH := sampledTempHumidity(noise, env)
		tempC, rh, err := DecodeTempHumidity(r.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if rh < 0 || rh > 100 || tempC < -50 || tempC > 150 {
			t.Errorf("%+v: decoded (%.3f °C, %.3f %%RH) must clamp to the sensor range", env, tempC, rh)
		}
		if math.Abs(tempC-wantT) > 0.01 || math.Abs(rh-wantRH) > 0.01 {
			t.Errorf("%+v: decoded (%.3f, %.3f) vs sampled (%.3f, %.3f)", env, tempC, rh, wantT, wantRH)
		}
	}
}

func TestStrainRoundTrip(t *testing.T) {
	s := NewStrain(3)
	env := Environment{StrainX: 120e-6, StrainY: -85e-6}
	r := s.Sample(env)
	noise := dsp.NewNoiseSource(3)
	wantX := env.StrainX + noise.Gaussian(0.5e-6)
	wantY := env.StrainY + noise.Gaussian(0.5e-6)
	x, y, err := DecodeStrain(r.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-env.StrainX) > 3e-6 || math.Abs(y-env.StrainY) > 3e-6 {
		t.Errorf("strain decode (%g, %g) far from truth (%g, %g)",
			x, y, env.StrainX, env.StrainY)
	}
	if math.Abs(x-wantX) > 2e-9 || math.Abs(y-wantY) > 2e-9 {
		t.Error("decode must match the sampled values within quantisation")
	}
}

func TestStrainNegativeValues(t *testing.T) {
	s := NewStrain(4)
	r := s.Sample(Environment{StrainX: -500e-6, StrainY: -1e-3})
	x, y, err := DecodeStrain(r.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if x > 0 || y > 0 {
		t.Errorf("compression must decode negative: %g %g", x, y)
	}
}

func TestAccelerometerRoundTrip(t *testing.T) {
	a := NewAccelerometer(5)
	env := Environment{AccelerationMS2: -0.032, StressMPa: -64.2}
	r := a.Sample(env)
	acc, stress, err := DecodeAccelerometer(r.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-env.AccelerationMS2) > 0.01 {
		t.Errorf("accel decode %g vs truth %g", acc, env.AccelerationMS2)
	}
	if math.Abs(stress-env.StressMPa) > 0.5 {
		t.Errorf("stress decode %g vs truth %g", stress, env.StressMPa)
	}
}

func TestDecodeDispatch(t *testing.T) {
	s := NewTempHumidity(6)
	r := s.Sample(Environment{TemperatureC: 25, RelativeHumidity: 60})
	vals, err := Decode(TypeTempHumidity, r.Raw)
	if err != nil || len(vals) != 2 {
		t.Fatalf("dispatch temp-humidity: %v %v", vals, err)
	}
	if _, err := Decode(SensorType(0x7F), []byte{1}); err == nil {
		t.Error("unknown type must error")
	}
}

func TestDecodeLengthValidation(t *testing.T) {
	if _, _, err := DecodeTempHumidity([]byte{1, 2}); err == nil {
		t.Error("short temp-humidity payload must error")
	}
	if _, _, err := DecodeStrain([]byte{1}); err == nil {
		t.Error("short strain payload must error")
	}
	if _, _, err := DecodeAccelerometer([]byte{1, 2, 3}); err == nil {
		t.Error("short accel payload must error")
	}
}

func TestSensorTypesAndPower(t *testing.T) {
	all := []Sensor{NewTempHumidity(1), NewStrain(1), NewAccelerometer(1)}
	seen := map[SensorType]bool{}
	for _, s := range all {
		if s.PowerDraw() <= 0 || s.PowerDraw() > 100e-6 {
			t.Errorf("%v: power draw %g W implausible for a battery-free node",
				s.Type(), s.PowerDraw())
		}
		if seen[s.Type()] {
			t.Errorf("duplicate type %v", s.Type())
		}
		seen[s.Type()] = true
		if s.Type().String() == "" {
			t.Error("type must format")
		}
	}
	if SensorType(0x55).String() == "" {
		t.Error("unknown type must format")
	}
}

func TestSensorDeterminism(t *testing.T) {
	env := Environment{TemperatureC: 30, RelativeHumidity: 70}
	a := NewTempHumidity(42).Sample(env)
	b := NewTempHumidity(42).Sample(env)
	for i := range a.Raw {
		if a.Raw[i] != b.Raw[i] {
			t.Fatal("same seed must produce identical readings")
		}
	}
}

func TestTempHumidityFullScaleSaturation(t *testing.T) {
	// Regression: 100 %RH used to overflow the 20-bit field and decode
	// as 0. Full-scale must saturate, not wrap.
	s := NewTempHumidity(9)
	r := s.Sample(Environment{TemperatureC: 25, RelativeHumidity: 100})
	_, rh, err := DecodeTempHumidity(r.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if rh < 95 {
		t.Errorf("full-scale humidity decoded as %.1f, must saturate near 100", rh)
	}
	r2 := s.Sample(Environment{TemperatureC: 150, RelativeHumidity: 50})
	tc, _, err := DecodeTempHumidity(r2.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if tc < 140 {
		t.Errorf("full-scale temperature decoded as %.1f, must saturate near 150", tc)
	}
}
