package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"ecocapsule/internal/units"
)

func sine(n int, fs, f, amp float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = amp * math.Sin(2*math.Pi*f*float64(i)/fs)
	}
	return x
}

func TestFFTKnownTransform(t *testing.T) {
	// FFT of a delta is flat.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	n := 64
	x := make([]complex128, n)
	k := 5
	for i := range x {
		ph := 2 * math.Pi * float64(k*i) / float64(n)
		x[i] = complex(math.Cos(ph), 0)
	}
	FFT(x)
	// Energy concentrated at bins k and n-k with magnitude n/2.
	if math.Abs(cmplx.Abs(x[k])-float64(n)/2) > 1e-9 {
		t.Errorf("bin %d magnitude = %g, want %g", k, cmplx.Abs(x[k]), float64(n)/2)
	}
	for i := range x {
		if i == k || i == n-k {
			continue
		}
		if cmplx.Abs(x[i]) > 1e-9 {
			t.Errorf("leakage at bin %d: %g", i, cmplx.Abs(x[i]))
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		src := NewNoiseSource(seed)
		n := 128
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(src.Gaussian(1), src.Gaussian(1))
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	src := NewNoiseSource(7)
	n := 256
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		v := src.Gaussian(1)
		x[i] = complex(v, 0)
		timeE += v * v
	}
	FFT(x)
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	freqE /= float64(n)
	//ecolint:ignore unitsafety timeE and freqE are both energies (Parseval); the time/freq prefixes name domains, not dimensions
	if math.Abs(timeE-freqE)/timeE > 1e-9 {
		t.Errorf("Parseval violated: time %g freq %g", timeE, freqE)
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two length")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 17: 32, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSpectrumFindsTone(t *testing.T) {
	fs := units.MHz
	f0 := 230e3
	x := sine(4096, fs, f0, 1.0)
	freqs, mags := Spectrum(x, fs)
	best, bestMag := 0.0, 0.0
	for i := range freqs {
		if mags[i] > bestMag {
			best, bestMag = freqs[i], mags[i]
		}
	}
	if math.Abs(best-f0) > fs/4096*2 {
		t.Errorf("spectral peak at %.0f Hz, want %.0f", best, f0)
	}
	if math.Abs(bestMag-1.0) > 0.1 {
		t.Errorf("peak magnitude %.3f, want ≈1 (amplitude recovery)", bestMag)
	}
}

func TestSpectrumEmpty(t *testing.T) {
	f, m := Spectrum(nil, 1e6)
	if f != nil || m != nil {
		t.Error("empty input should return nil spectra")
	}
}

func TestGoertzelMatchesTone(t *testing.T) {
	fs := units.MHz
	x := sine(1000, fs, 230e3, 2.0)
	pOn := Goertzel(x, fs, 230e3)
	pOff := Goertzel(x, fs, 180e3)
	if pOn < 100*pOff {
		t.Errorf("Goertzel at tone (%g) should dwarf off-tone (%g)", pOn, pOff)
	}
	// Power of amplitude-2 sine ≈ amplitude² = 4 with this normalisation.
	if math.Abs(pOn-4) > 0.5 {
		t.Errorf("Goertzel power %g, want ≈4", pOn)
	}
	if Goertzel(nil, fs, 1) != 0 {
		t.Error("empty Goertzel must be 0")
	}
}

func TestPeakFrequency(t *testing.T) {
	fs := units.MHz
	x := sine(8192, fs, 232e3, 1)
	got := PeakFrequency(x, fs, 200e3, 260e3)
	if math.Abs(got-232e3) > 300 {
		t.Errorf("PeakFrequency = %.0f, want ≈232000", got)
	}
	// Out-of-range search returns something inside the range or 0.
	if f := PeakFrequency(x, fs, 300e3, 400e3); f < 300e3 && f != 0 {
		t.Errorf("restricted search escaped the range: %g", f)
	}
}

func TestFIRLowPassResponse(t *testing.T) {
	fs, fc := units.MHz, 50e3
	h := FIRLowPass(fs, fc, 101)
	// DC gain = 1.
	var dc float64
	for _, v := range h {
		dc += v
	}
	if math.Abs(dc-1) > 1e-9 {
		t.Errorf("DC gain %g, want 1", dc)
	}
	// Passband tone survives, stopband tone is crushed.
	pass := Convolve(sine(4000, fs, 10e3, 1), h)
	stop := Convolve(sine(4000, fs, 300e3, 1), h)
	if RMS(pass[500:3500]) < 0.6 {
		t.Errorf("passband RMS %g too low", RMS(pass[500:3500]))
	}
	if RMS(stop[500:3500]) > 0.05 {
		t.Errorf("stopband RMS %g too high", RMS(stop[500:3500]))
	}
}

func TestFIRLowPassOddTaps(t *testing.T) {
	if len(FIRLowPass(1e6, 1e4, 10)) != 11 {
		t.Error("even tap count must be promoted to odd")
	}
	if len(FIRLowPass(1e6, 1e4, 1)) != 3 {
		t.Error("minimum 3 taps")
	}
}

func TestConvolveIdentity(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := Convolve(x, []float64{1})
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity convolution broken at %d", i)
		}
	}
	if Convolve(nil, []float64{1}) != nil {
		t.Error("empty input should return nil")
	}
	if Convolve(x, nil) != nil {
		t.Error("empty kernel should return nil")
	}
}

func TestConvolveLinearityProperty(t *testing.T) {
	h := FIRLowPass(1e6, 1e5, 21)
	f := func(seed int64) bool {
		src := NewNoiseSource(seed)
		a := make([]float64, 64)
		b := make([]float64, 64)
		for i := range a {
			a[i] = src.Gaussian(1)
			b[i] = src.Gaussian(1)
		}
		sum := make([]float64, 64)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		ya, yb, ys := Convolve(a, h), Convolve(b, h), Convolve(sum, h)
		for i := range ys {
			if math.Abs(ys[i]-(ya[i]+yb[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEnvelopeTracksAmplitude(t *testing.T) {
	fs := units.MHz
	// AM: carrier at 230 kHz switching amplitude 1 → 0.2.
	n := 4000
	x := make([]float64, n)
	for i := range x {
		amp := 1.0
		if i >= n/2 {
			amp = 0.2
		}
		x[i] = amp * math.Sin(2*math.Pi*230e3*float64(i)/fs)
	}
	env := Envelope(x, fs, 20e-6)
	hi := Mean(env[n/4 : n/2-100])
	lo := Mean(env[3*n/4:])
	if hi < 3*lo {
		t.Errorf("envelope must separate levels: hi=%g lo=%g", hi, lo)
	}
	for _, v := range env {
		if v < 0 {
			t.Fatal("envelope must be non-negative")
		}
	}
	if len(Envelope(nil, fs, 1e-5)) != 0 {
		t.Error("empty envelope")
	}
}

func TestDownConvertRecoversBaseband(t *testing.T) {
	fs := units.MHz
	fc := 230e3
	n := 8000
	// OOK: carrier on for first half, off for second.
	x := make([]float64, n)
	for i := 0; i < n/2; i++ {
		x[i] = math.Sin(2 * math.Pi * fc * float64(i) / fs)
	}
	bb := DownConvert(x, fs, fc, 20e3)
	mag := Magnitude(bb)
	on := Mean(mag[1000 : n/2-500])
	off := Mean(mag[n/2+500 : n-500])
	if on < 10*off {
		t.Errorf("down-converted OOK must separate: on=%g off=%g", on, off)
	}
	// On-level ≈ amplitude/2 for this mixer convention.
	if math.Abs(on-0.5) > 0.1 {
		t.Errorf("on level %g, want ≈0.5", on)
	}
	if DownConvert(nil, fs, fc, 1e4) != nil {
		t.Error("empty input must return nil")
	}
}

func TestStatsHelpers(t *testing.T) {
	x := []float64{3, -4}
	if Mean(x) != -0.5 {
		t.Errorf("Mean = %g", Mean(x))
	}
	if math.Abs(RMS(x)-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %g", RMS(x))
	}
	if MaxAbs(x) != 4 {
		t.Errorf("MaxAbs = %g", MaxAbs(x))
	}
	if Mean(nil) != 0 || RMS(nil) != 0 || MaxAbs(nil) != 0 {
		t.Error("empty stats must be 0")
	}
}

func TestNoiseSourceDeterminism(t *testing.T) {
	a, b := NewNoiseSource(42), NewNoiseSource(42)
	for i := 0; i < 100; i++ {
		if a.Gaussian(1) != b.Gaussian(1) {
			t.Fatal("same seed must generate identical streams")
		}
	}
	c := NewNoiseSource(43)
	same := true
	a2 := NewNoiseSource(42)
	for i := 0; i < 10; i++ {
		if a2.Gaussian(1) != c.Gaussian(1) {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestNoiseStatistics(t *testing.T) {
	src := NewNoiseSource(1)
	n := 100000
	x := make([]float64, n)
	src.AddAWGN(x, 2.0)
	if m := Mean(x); math.Abs(m) > 0.05 {
		t.Errorf("noise mean %g, want ≈0", m)
	}
	if r := RMS(x); math.Abs(r-2.0) > 0.05 {
		t.Errorf("noise RMS %g, want ≈2", r)
	}
}

func TestSigmaForSNRAndMeasureSNR(t *testing.T) {
	fs := units.MHz
	x := sine(20000, fs, 100e3, 1)
	for _, snr := range []float64{0, 5, 10, 20} {
		sigma := SigmaForSNR(RMS(x), snr)
		y := make([]float64, len(x))
		copy(y, x)
		NewNoiseSource(9).AddAWGN(y, sigma)
		got := MeasureSNR(x, y)
		if math.Abs(got-snr) > 0.5 {
			t.Errorf("target %g dB, measured %g dB", snr, got)
		}
	}
	if SigmaForSNR(0, 10) != 0 {
		t.Error("zero signal RMS must yield zero sigma")
	}
	if !math.IsInf(MeasureSNR(x, x), 1) {
		t.Error("identical signals must measure +Inf SNR")
	}
	if !math.IsInf(MeasureSNR(nil, nil), -1) {
		t.Error("empty input must measure -Inf")
	}
}

func TestUniformAndIntn(t *testing.T) {
	src := NewNoiseSource(5)
	for i := 0; i < 1000; i++ {
		if u := src.Uniform(); u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %g", u)
		}
		if v := src.Intn(8); v < 0 || v >= 8 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}
