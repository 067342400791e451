package dsp

// Real-input FFT with a packed half-spectrum. A real n-point signal has a
// Hermitian spectrum, so only bins 0..n/2 carry information; a plan's
// Transform computes exactly those (n/2+1 complex values) through one
// n/2-point complex FFT — the standard even/odd packing — halving the
// butterfly work of a complex transform of the padded length. Inverse
// inverts the packed form.
//
// Plans (twiddle tables, untangling roots, scratch pools) are cached per
// transform length in a package-level table, so steady-state transforms via
// PlanRFFT + Transform/Inverse run allocation-free. The Convolver's
// overlap-add engine and the reader's carrier estimator both ride this
// cache.

import (
	"math"
	"sync"
)

// RFFTPlan holds everything one real-FFT length needs: the m = n/2 complex
// FFT twiddles, the n-th roots used to untangle the even/odd packing, and a
// pool of complex scratch buffers. A plan is safe for concurrent use.
type RFFTPlan struct {
	n  int          // real transform length (power of two, >= 1)
	m  int          // n/2: complex FFT size of the packed transform
	tw []complex128 // m/2 twiddles for the size-m complex FFT
	wN []complex128 // e^{-2πik/n}, k = 0..m: untangling roots

	// pool of []complex128 scratch, each m long.
	pool sync.Pool
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
	//ecolint:ignore hotalloc twiddle tables are built once per length, then cached for the process lifetime
	p := newRFFTPlan(n)
	rfftPlans[n] = p
	return p
}

// newRFFTPlan builds a private (uncached) plan — the cache and the
// Convolver both call this.
func newRFFTPlan(n int) *RFFTPlan {
	m := n / 2
	p := &RFFTPlan{n: n, m: m}
	p.tw = make([]complex128, m/2)
	for k := range p.tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(m))
		p.tw[k] = complex(c, s)
	}
	p.wN = make([]complex128, m+1)
	for k := range p.wN {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.wN[k] = complex(c, s)
	}
	p.pool.New = func() any {
		z := make([]complex128, m)
		return &z
	}
	return p
}

// HalfLen returns the packed spectrum length, n/2 + 1.
func (p *RFFTPlan) HalfLen() int { return p.m + 1 }

// Transform computes the packed half-spectrum of the real signal x
// (len(x) == N()) into spec (len >= HalfLen()): spec[k] holds bin k of the
// n-point DFT for k = 0..n/2; the remaining bins follow by Hermitian
// symmetry and are never stored. Warm calls allocate nothing.
//
//ecolint:hotpath zero-alloc invariant guarded by TestRFFTPlanTransformZeroAlloc
func (p *RFFTPlan) Transform(spec []complex128, x []float64) {
	if len(x) != p.n {
		panic("dsp: RFFT input length does not match the plan")
	}
	if len(spec) < p.m+1 {
		panic("dsp: RFFT spectrum buffer too short")
	}
	if p.m == 0 {
		// n == 1: the single bin is the sample itself.
		spec[0] = complex(x[0], 0)
		return
	}
	zp := p.pool.Get().(*[]complex128)
	z := *zp
	m := p.m
	for j := 0; j < m; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	fftTab(z, p.tw)
	// Bin k pairs z[k] with conj(z[m-k]), indices taken mod m: bins 0 and
	// m both pair z[0] with itself, so they run outside the loop.
	z0 := cconj(z[0])
	spec[0] = untangle(z[0], z0, p.wN[0])
	spec[m] = untangle(z[0], z0, p.wN[m])
	for k := 1; k < m; k++ {
		spec[k] = untangle(z[k], cconj(z[m-k]), p.wN[k])
	}
	p.pool.Put(zp)
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
// half-spectrum spec (len >= HalfLen()), inverting Transform. Warm calls
// allocate nothing.
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
	zp := p.pool.Get().(*[]complex128)
	z := *zp
	m := p.m
	// The size-m inverse runs as conj(FFT(conj(·)))/m, its two conjugations
	// and the scaling folded into the untangling and unpacking loops.
	for k := 0; k < m; k++ {
		yk := spec[k]
		ykm := cconj(spec[m-k]) // spec[k+m] of the full n-point spectrum
		even := (yk + ykm) * 0.5
		odd := (yk - ykm) * 0.5 * cconj(p.wN[k])
		z[k] = cconj(even + mulI(odd))
	}
	fftTab(z, p.tw)
	inv := 1 / float64(m)
	for j, v := range z {
		y[2*j] = real(v) * inv
		y[2*j+1] = -imag(v) * inv
	}
	p.pool.Put(zp)
}
