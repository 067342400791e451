package dsp

import (
	"slices"
	"testing"
	"time"
)

// channelLikeKernel mimics the image-source response of the demo wall:
// ~343 taps spread over ~51 k samples at 1 MS/s.
func channelLikeKernel(taps, span int) *Convolver {
	src := NewNoiseSource(9)
	offs := make([]int, taps)
	gains := make([]float64, taps)
	for i := range offs {
		offs[i] = src.Intn(span)
		gains[i] = src.Gaussian(0.1)
	}
	offs[0] = span - 1
	return NewSparseConvolver(offs, gains)
}

// clusteredKernel mimics a real link's response more closely than
// channelLikeKernel: symmetric image sources arrive at equal delays, so the
// arrivals fall on ~85 distinct samples in clusters a few samples wide,
// with long empty gaps between the clusters (the common wall's 343 arrivals
// land on 82–88 distinct samples). The offsets are sorted, as a channel's
// arrivals are, and the last lands on span−1.
func clusteredKernel(arrivals, span int) *Convolver {
	src := NewNoiseSource(13)
	distinct := make([]int, 0, 85)
	for len(distinct) < cap(distinct) {
		at := src.Intn(span - 16)
		for w := 1 + src.Intn(6); w > 0 && len(distinct) < cap(distinct); w-- {
			distinct = append(distinct, at)
			at += 1 + src.Intn(2)
		}
	}
	distinct[0] = span - 1
	offs := make([]int, arrivals)
	gains := make([]float64, arrivals)
	for i := range offs {
		if i < len(distinct) {
			offs[i] = distinct[i]
		} else {
			offs[i] = distinct[src.Intn(len(distinct))]
		}
		gains[i] = src.Gaussian(0.1)
	}
	slices.Sort(offs)
	return NewSparseConvolver(offs, gains)
}

func convBenchSignal(n int) []float64 {
	src := NewNoiseSource(11)
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Gaussian(1)
	}
	return x
}

func benchPath(b *testing.B, c *Convolver, n int, fn func(out, x []float64)) {
	b.Helper()
	x := convBenchSignal(n)
	out := make([]float64, c.OutLen(n))
	fn(out, x) // warm the FFT plan cache before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range out {
			out[j] = 0
		}
		fn(out, x)
	}
}

func BenchmarkConvolverDirect10k(b *testing.B) {
	c := channelLikeKernel(343, 51234)
	benchPath(b, c, 10000, c.applyDirect)
}

func BenchmarkConvolverFFT10k(b *testing.B) {
	c := channelLikeKernel(343, 51234)
	benchPath(b, c, 10000, c.applyFFT)
}

func BenchmarkConvolverDirect100k(b *testing.B) {
	c := channelLikeKernel(343, 51234)
	benchPath(b, c, 100000, c.applyDirect)
}

func BenchmarkConvolverFFT100k(b *testing.B) {
	c := channelLikeKernel(343, 51234)
	benchPath(b, c, 100000, c.applyFFT)
}

func BenchmarkConvolverAuto100k(b *testing.B) {
	c := channelLikeKernel(343, 51234)
	benchPath(b, c, 100000, c.ApplyTo)
}

func BenchmarkConvolverClusteredDirect46k(b *testing.B) {
	c := clusteredKernel(343, 51234)
	benchPath(b, c, 46000, c.applyDirect)
}

func BenchmarkConvolverClusteredFFT46k(b *testing.B) {
	c := clusteredKernel(343, 51234)
	benchPath(b, c, 46000, c.applyFFT)
}

func BenchmarkConvolverClusteredAuto46k(b *testing.B) {
	c := clusteredKernel(343, 51234)
	benchPath(b, c, 46000, c.ApplyTo)
}

// timePaths measures both forced paths three times each, alternating
// direct and FFT, and returns each path's fastest run. Alternating puts a
// burst of scheduler or neighbour noise on both paths, not on one.
func timePaths(c *Convolver, x []float64) (direct, fft time.Duration) {
	out := make([]float64, c.OutLen(len(x)))
	direct, fft = time.Duration(1<<62-1), time.Duration(1<<62-1)
	for rep := 0; rep < 3; rep++ {
		for _, useFFT := range []bool{false, true} {
			clear(out)
			t0 := time.Now()
			if useFFT {
				c.applyFFT(out, x)
				fft = min(fft, time.Since(t0))
			} else {
				c.applyDirect(out, x)
				direct = min(direct, time.Since(t0))
			}
		}
	}
	return direct, fft
}

// TestCrossoverNeverFarFromBest is the convolver's benchmark guard: across
// the regime map the cost model operates in (thin and thick kernels, short
// and long inputs), the path the model picks must never be more than 2×
// slower than the alternative. The guard is about the heuristic's shape,
// not the machine's absolute speed, so it tolerates noise by taking
// best-of-3 per path over interleaved runs.
func TestCrossoverNeverFarFromBest(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based guard skipped in -short mode")
	}
	if raceEnabled {
		// Race instrumentation inflates the tight direct-convolution loop
		// far more than the FFT path, so the calibrated cost model's pick
		// looks wrong even though the un-instrumented ratio is fine.
		t.Skip("timing-based guard is meaningless under the race detector")
	}
	for _, tc := range []struct {
		taps, span, n int
		clustered     bool
	}{
		{343, 51234, 4000, false},   // channel kernel, short burst → direct regime
		{343, 51234, 10000, false},  // channel kernel, 10 ms CBW → near the crossover
		{343, 51234, 100000, false}, // channel kernel, full frame → FFT regime
		{16, 2048, 4096, false},     // thin kernel → direct regime
		{2000, 8192, 8192, false},   // dense kernel → FFT regime
		{343, 51234, 10000, true},   // real link's clustered taps, 10 ms CBW → direct regime
		{343, 51234, 46000, true},   // real link's clustered taps, a 2 kbps round slot → direct regime
	} {
		c := channelLikeKernel(tc.taps, tc.span)
		if tc.clustered {
			c = clusteredKernel(tc.taps, tc.span)
		}
		x := convBenchSignal(tc.n)
		convolvePath(c, x, "fft") // warm the plan cache
		direct, fft := timePaths(c, x)
		chose, other := direct, fft
		if c.fftFaster(tc.n) {
			chose, other = fft, direct
		}
		if float64(chose) > 2*float64(other) {
			t.Errorf("taps=%d (%d distinct) span=%d n=%d: crossover picked the slower path by >2× (chosen %v vs %v, fftFaster=%v)",
				tc.taps, c.Taps(), tc.span, tc.n, chose, other, c.fftFaster(tc.n))
		}
	}
}
