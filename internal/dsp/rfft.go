package dsp

// Real-input FFT with a packed half-spectrum. A real n-point signal has a
// Hermitian spectrum, so only bins 0..n/2 carry information; a plan's
// Transform computes exactly those (n/2+1 complex values) through one
// n/2-point complex FFT — the standard even/odd packing — halving the
// butterfly work of a complex transform of the padded length. Inverse
// inverts the packed form.
//
// Plans (one table of n-th roots of unity) are cached per transform length
// in a package-level table. A plan keeps no scratch: Transform packs and
// transforms inside the spectrum buffer it fills, and Inverse works inside
// the spectrum it reads, so steady-state transforms via PlanRFFT +
// Transform/Inverse run allocation-free and hold no memory between calls.
// The Convolver's overlap-add engine and the reader's carrier estimator
// both ride this cache.

import (
	"math"
	"sync"
)

// RFFTPlan holds what one real-FFT length needs: the n-th roots of unity.
// They untangle the even/odd packing, and read at stride 2 they are the
// twiddles of the size-m complex FFT: e^{-2πi(2k)/n} and e^{-2πik/m} are
// the same float64, because both angles are the same product divided by a
// power of two. A plan is immutable, so it is safe for concurrent use.
type RFFTPlan struct {
	n  int          // real transform length (power of two, >= 1)
	m  int          // n/2: complex FFT size of the packed transform
	wN []complex128 // e^{-2πik/n}, k = 0..m
}

var (
	rfftMu sync.Mutex
	//ecolint:guardedby rfftMu
	rfftPlans = make(map[int]*RFFTPlan)
)

// PlanRFFT returns the shared plan for real transform length n, building
// and caching it on first use. n must be a power of two and at least 1;
// the function panics otherwise, because callers control their buffer
// sizes.
//
//ecolint:hotpath one plan per transform length; warm lookups are a map read
func PlanRFFT(n int) *RFFTPlan {
	if n < 1 || n&(n-1) != 0 {
		panic("dsp: RFFT length must be a power of two and at least 1")
	}
	rfftMu.Lock()
	defer rfftMu.Unlock()
	if p, ok := rfftPlans[n]; ok {
		return p
	}
	//ecolint:ignore hotalloc the root table is built once per length, then cached for the process lifetime
	p := newRFFTPlan(n)
	rfftPlans[n] = p
	return p
}

// newRFFTPlan builds a private (uncached) plan.
func newRFFTPlan(n int) *RFFTPlan {
	m := n / 2
	p := &RFFTPlan{n: n, m: m}
	p.wN = make([]complex128, m+1)
	for k := range p.wN {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.wN[k] = complex(c, s)
	}
	return p
}

// HalfLen returns the packed spectrum length, n/2 + 1.
func (p *RFFTPlan) HalfLen() int { return p.m + 1 }

// Transform computes the packed half-spectrum of the real signal x
// (len(x) == N()) into spec (len >= HalfLen()): spec[k] holds bin k of the
// n-point DFT for k = 0..n/2; the remaining bins follow by Hermitian
// symmetry and are never stored. It allocates nothing.
//
//ecolint:hotpath zero-alloc invariant guarded by TestRFFTPlanTransformZeroAlloc
func (p *RFFTPlan) Transform(spec []complex128, x []float64) {
	if len(x) != p.n {
		panic("dsp: RFFT input length does not match the plan")
	}
	p.TransformPadded(spec, x)
}

// TransformPadded is Transform of x zero-extended to the plan length:
// len(x) may be anything up to N(). The spectrum is bit-identical to
// Transform of an explicitly zero-padded copy, without the copy.
//
//ecolint:hotpath packs, transforms and untangles inside spec
func (p *RFFTPlan) TransformPadded(spec []complex128, x []float64) {
	if len(x) > p.n {
		panic("dsp: RFFT input longer than the plan")
	}
	if len(spec) < p.m+1 {
		panic("dsp: RFFT spectrum buffer too short")
	}
	if p.m == 0 {
		// n == 1: the single bin is the sample itself.
		spec[0] = complex(at(x, 0), 0)
		return
	}
	m := p.m
	z := spec[:m]
	pairs := min(len(x)/2, m)
	for j := 0; j < pairs; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	if pairs < m {
		z[pairs] = complex(at(x, 2*pairs), 0)
		clear(z[pairs+1:])
	}
	fftTab(z, p.wN)
	// Bin k pairs z[k] with conj(z[m-k]), indices taken mod m, and bin m-k
	// pairs z[m-k] with conj(z[k]): each pair of bins reads the same two
	// packed values, so both are untangled before either is overwritten.
	// Bins 0 and m both pair z[0] with itself; bin m goes first, since it
	// lands past z.
	z0 := cconj(z[0])
	spec[m] = untangle(z[0], z0, p.wN[m])
	spec[0] = untangle(z[0], z0, p.wN[0])
	for k := 1; k <= m/2; k++ {
		zk, zr := z[k], z[m-k]
		spec[k] = untangle(zk, cconj(zr), p.wN[k])
		spec[m-k] = untangle(zr, cconj(zk), p.wN[m-k])
	}
}

// at is x[i], or 0 past the end of x.
func at(x []float64, i int) float64 {
	if i < len(x) {
		return x[i]
	}
	return 0
}

// untangle splits the packed bins zk = Z[k] and zr = conj(Z[m-k]) into the
// even- and odd-sample spectra and recombines them into bin k of the real
// transform, w = e^{-2πik/n}.
func untangle(zk, zr, w complex128) complex128 {
	even := (zk + zr) * 0.5
	odd := mulNegI(zk-zr) * 0.5
	return even + w*odd
}

// Inverse reconstructs the real signal y (len(y) == N()) from the packed
// half-spectrum spec (len >= HalfLen()), inverting Transform. It uses spec
// as its working storage and leaves it overwritten: a caller that still
// needs the spectrum passes a copy. It allocates nothing.
//
//ecolint:hotpath zero-alloc invariant shared with Transform
func (p *RFFTPlan) Inverse(y []float64, spec []complex128) {
	if len(y) != p.n {
		panic("dsp: IRFFT output length does not match the plan")
	}
	if len(spec) < p.m+1 {
		panic("dsp: IRFFT spectrum buffer too short")
	}
	if p.m == 0 {
		y[0] = real(spec[0])
		return
	}
	m := p.m
	// The size-m inverse runs as conj(FFT(conj(·)))/m, its two conjugations
	// and the scaling folded into the untangling and unpacking loops.
	// Packed value k reads bins k and m-k, and packed value m-k the same
	// two, so each pair is read before either is overwritten; bin m is
	// read only by packed value 0.
	z := spec[:m]
	z[0] = p.repack(spec[0], spec[m], 0)
	for k := 1; k <= m/2; k++ {
		sk, sr := spec[k], spec[m-k]
		z[k] = p.repack(sk, sr, k)
		z[m-k] = p.repack(sr, sk, m-k)
	}
	fftTab(z, p.wN)
	inv := 1 / float64(m)
	for j, v := range z {
		y[2*j] = real(v) * inv
		y[2*j+1] = -imag(v) * inv
	}
}

// repack is packed value k of the inverse: yk = spec[k], ym = spec[m-k]
// (so conj(ym) is bin k+m of the full n-point spectrum), conjugated for
// the forward kernel.
func (p *RFFTPlan) repack(yk, ym complex128, k int) complex128 {
	ykm := cconj(ym)
	even := (yk + ykm) * 0.5
	odd := (yk - ykm) * 0.5 * cconj(p.wN[k])
	return cconj(even + mulI(odd))
}
