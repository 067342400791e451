package dsp

import (
	"math"
	"testing"

	"ecocapsule/internal/units"
)

// Performance benchmarks for the DSP hot paths the channel simulator and
// decoders lean on.

func benchSignal(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*230e3*float64(i)/1e6) * (1 + 0.1*math.Sin(float64(i)/500))
	}
	return x
}

// BenchmarkFFT4096 times the production complex kernel (fftTab) on the
// root table of an 8192-point RFFT plan, whose packed transform is this
// 4096-point complex FFT.
func BenchmarkFFT4096(b *testing.B) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	w := newRFFTPlan(2 * len(x)).wN
	buf := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		fftTab(buf, w)
	}
}

func BenchmarkSpectrum16k(b *testing.B) {
	x := benchSignal(16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Spectrum(x, 1e6)
	}
}

func BenchmarkGoertzel(b *testing.B) {
	x := benchSignal(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Goertzel(x, 1e6, 230e3)
	}
}

func BenchmarkEnvelope(b *testing.B) {
	x := benchSignal(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Envelope(x, units.MHz, 25e-6)
	}
}

func BenchmarkDownConvert(b *testing.B) {
	x := benchSignal(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DownConvert(x, units.MHz, 230e3, 4e3)
	}
}

func BenchmarkWelchPSD(b *testing.B) {
	x := benchSignal(16384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WelchPSD(x, units.MHz, 1024)
	}
}
