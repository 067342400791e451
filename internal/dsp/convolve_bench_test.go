package dsp

import (
	"slices"
	"testing"
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
// arrivals fall on at most distinct samples, in clusters a few samples
// wide with long empty gaps between the clusters (the common wall's 343
// arrivals land on 82–88 distinct samples). The offsets are sorted, as a channel's
// arrivals are, and the last lands on span−1.
func clusteredKernel(arrivals, distinct, span int) *Convolver {
	src := NewNoiseSource(13)
	delays := make([]int, 0, distinct)
	for len(delays) < cap(delays) {
		at := src.Intn(span - 16)
		for w := 1 + src.Intn(6); w > 0 && len(delays) < cap(delays); w-- {
			delays = append(delays, at)
			at += 1 + src.Intn(2)
		}
	}
	delays[0] = span - 1
	offs := make([]int, arrivals)
	gains := make([]float64, arrivals)
	for i := range offs {
		if i < len(delays) {
			offs[i] = delays[i]
		} else {
			offs[i] = delays[src.Intn(len(delays))]
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

// benchConvolver times ApplyTo of an n-sample signal into a zeroed out.
func benchConvolver(b *testing.B, c *Convolver, n int) {
	b.Helper()
	x := convBenchSignal(n)
	out := make([]float64, c.OutLen(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		c.ApplyTo(out, x)
	}
}

func BenchmarkConvolverDirect10k(b *testing.B) {
	benchConvolver(b, channelLikeKernel(343, 51234), 10000)
}

func BenchmarkConvolverDirect100k(b *testing.B) {
	benchConvolver(b, channelLikeKernel(343, 51234), 100000)
}

// BenchmarkConvolverClusteredDirect46k is a common-wall link over a 2 kbps
// round slot.
func BenchmarkConvolverClusteredDirect46k(b *testing.B) {
	benchConvolver(b, clusteredKernel(343, 85, 51234), 46000)
}

// BenchmarkConvolverBlock92k is the 15 cm block link over a long
// block-sweep capture.
func BenchmarkConvolverBlock92k(b *testing.B) {
	benchConvolver(b, clusteredKernel(343, 96, 366), 92000)
}

// BenchmarkConvolverOrder8Wall28k is the order-8 common-wall link under
// ecobench's round entries over one frame.
func BenchmarkConvolverOrder8Wall28k(b *testing.B) {
	benchConvolver(b, clusteredKernel(4901, 952, 117273), 28000)
}
