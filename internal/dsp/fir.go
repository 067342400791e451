package dsp

// FIRFilter is the plan-cached fast path for dense FIR filtering with the
// same centred, same-length semantics as Convolve/ConvolveComplex: the
// kernel is centred on each output sample and the edges are zero-padded.
// Internally it rides the Convolver, whose cost model picks between the
// direct loop and the RFFT overlap-add engine, so a 101-tap down-conversion
// low-pass over a 30 k-sample capture runs as a handful of cached
// frequency-domain passes instead of 3 M multiply-adds per component.
//
// The filter is safe for concurrent use and its warm paths (ApplyTo /
// ApplyComplexTo with plan and scratch pools populated) allocate nothing.
// Both paths are equal to the reference Convolve/ConvolveComplex within
// 1e-9, guarded by the equivalence battery in fir_test.go.

import "sync"

// FIRFilter applies a fixed dense FIR kernel.
type FIRFilter struct {
	mid  int
	conv *Convolver
	// pool of *firScratch
	pool sync.Pool
}

type firScratch struct {
	full   []float64 // n+L-1 linear-convolution buffer (real part)
	fullIm []float64 // same, imaginary part
	re, im []float64 // split complex input
}

// NewFIRFilter builds a filter for kernel h (h is copied; it must be
// non-empty). The kernel is treated as centred: output sample i sees
// h[k]·x[i+len(h)/2−k].
func NewFIRFilter(h []float64) *FIRFilter {
	if len(h) == 0 {
		panic("dsp: NewFIRFilter empty kernel")
	}
	offs := make([]int, len(h))
	for i := range offs {
		offs[i] = i
	}
	f := &FIRFilter{
		mid:  len(h) / 2,
		conv: NewSparseConvolver(offs, h),
	}
	f.pool.New = func() any { return &firScratch{} }
	return f
}

// grow returns buf resized to n, reusing capacity.
//
//ecolint:hotpath grows only until pooled scratch reaches the largest block; steady state reslices
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		//ecolint:ignore hotalloc cold-path capacity growth; warm calls take the reslice branch
		return make([]float64, n)
	}
	return buf[:n]
}

// ApplyTo filters x into dst (len(dst) >= len(x)); dst[i] equals
// Convolve(x, h)[i] within 1e-9. dst must not alias x. Warm calls allocate
// nothing.
//
//ecolint:hotpath warm filtering rides pooled scratch and the shared Convolver
func (f *FIRFilter) ApplyTo(dst, x []float64) {
	if len(x) == 0 {
		return
	}
	if len(dst) < len(x) {
		panic("dsp: FIRFilter output buffer too short")
	}
	sc := f.pool.Get().(*firScratch)
	sc.full = grow(sc.full, f.conv.OutLen(len(x)))
	clear(sc.full)
	f.conv.ApplyTo(sc.full, x)
	copy(dst[:len(x)], sc.full[f.mid:f.mid+len(x)])
	f.pool.Put(sc)
}

// ApplyComplexTo filters the complex signal x with the real kernel into dst
// (len(dst) >= len(x)), equal to ConvolveComplex(x, h) within 1e-9: the
// real and imaginary components each take one real convolution pass. dst
// must not alias x. Warm calls allocate nothing.
//
//ecolint:hotpath warm filtering rides pooled scratch and the shared Convolver
func (f *FIRFilter) ApplyComplexTo(dst, x []complex128) {
	if len(x) == 0 {
		return
	}
	if len(dst) < len(x) {
		panic("dsp: FIRFilter output buffer too short")
	}
	n := len(x)
	sc := f.pool.Get().(*firScratch)
	sc.re = grow(sc.re, n)
	sc.im = grow(sc.im, n)
	for i, v := range x {
		sc.re[i] = real(v)
		sc.im[i] = imag(v)
	}
	outLen := f.conv.OutLen(n)
	sc.full = grow(sc.full, outLen)
	sc.fullIm = grow(sc.fullIm, outLen)
	clear(sc.full)
	clear(sc.fullIm)
	f.conv.ApplyTo(sc.full, sc.re)
	f.conv.ApplyTo(sc.fullIm, sc.im)
	for i := 0; i < n; i++ {
		dst[i] = complex(sc.full[f.mid+i], sc.fullIm[f.mid+i])
	}
	f.pool.Put(sc)
}
