package dsp

// The channel simulator's hot path is linear convolution of a waveform with
// a tapped-delay-line impulse response: a few hundred sparse taps spread
// over tens of thousands of samples (the image-source reverberation of a
// 20 m wall at 1 MS/s). Two algorithms cover the regime map:
//
//   - direct sparse convolution, O(len(x)·taps): unbeatable for short
//     inputs or thin responses;
//   - FFT overlap-add, O(len(x)·log N) with the kernel spectrum cached:
//     wins once the tap count outgrows the FFT's log factor.
//
// The Convolver owns both, picks per call with a calibrated cost model, and
// reuses scratch buffers through a sync.Pool so steady-state Transmit calls
// stay allocation-light. Real signals ride a half-size complex FFT (the
// standard even/odd packing), halving the transform cost relative to a
// naive complex FFT of the padded length.

import (
	"math"
	"sync"
)

// fftCostWeight calibrates the cost model that picks between the direct and
// FFT paths: one radix-2 butterfly (complex multiply-add plus shuffling)
// costs about this many sparse-tap multiply-adds on amd64 (measured with
// BenchmarkConvolverPaths; the exact value only moves the crossover, not
// correctness, and TestCrossoverNeverFarFromBest guards the choice).
const fftCostWeight = 4.0

// Convolver convolves real signals with a fixed sparse kernel. It is safe
// for concurrent use; FFT plans and scratch buffers are cached internally.
type Convolver struct {
	offsets []int
	gains   []float64
	kernLen int // last offset + 1 (dense kernel length); 0 for empty kernels

	mu sync.Mutex
	//ecolint:guardedby mu
	plans map[int]*fftPlan // keyed by padded FFT length N
}

// NewSparseConvolver builds a convolver for the tapped-delay-line kernel
// h[offsets[i]] += gains[i]. Offsets must be non-negative; the slices must
// have equal length. The caller keeps ownership of neither slice.
func NewSparseConvolver(offsets []int, gains []float64) *Convolver {
	if len(offsets) != len(gains) {
		panic("dsp: NewSparseConvolver offset/gain length mismatch")
	}
	c := &Convolver{
		offsets: append([]int(nil), offsets...),
		gains:   append([]float64(nil), gains...),
		plans:   make(map[int]*fftPlan),
	}
	for _, off := range offsets {
		if off < 0 {
			panic("dsp: NewSparseConvolver negative offset")
		}
		if off+1 > c.kernLen {
			c.kernLen = off + 1
		}
	}
	return c
}

// Taps returns the number of kernel taps.
func (c *Convolver) Taps() int { return len(c.offsets) }

// KernelLen returns the dense kernel length (last offset + 1).
func (c *Convolver) KernelLen() int { return c.kernLen }

// OutLen returns the linear-convolution output length for an n-sample input.
func (c *Convolver) OutLen(n int) int {
	if n == 0 || c.kernLen == 0 {
		return 0
	}
	return n + c.kernLen - 1
}

// ApplyTo adds the linear convolution of x with the kernel into out, which
// must be zeroed (or hold a signal to accumulate onto) and at least
// OutLen(len(x)) long. The algorithm is chosen by the cost model; both
// paths produce results equal within ~1e-12 of each other.
//
//ecolint:hotpath warm Transmit calls must not allocate (PR 7 fast path)
func (c *Convolver) ApplyTo(out, x []float64) {
	if len(x) == 0 || len(c.offsets) == 0 {
		return
	}
	if len(out) < c.OutLen(len(x)) {
		panic("dsp: ApplyTo output buffer too short")
	}
	if c.fftFaster(len(x)) {
		c.applyFFT(out, x)
		return
	}
	c.applyDirect(out, x)
}

// Prime builds (if absent) the cached FFT plan and kernel spectrum an
// n-sample input will use, without convolving anything. A caller that knows
// its upcoming block length — a reader laying out a TDMA round, a cache
// warming a link entry — can pay the spectrum precompute once, up front;
// the matching ApplyTo then runs entirely on cached state. Inputs the cost
// model would route to the direct path are a no-op.
func (c *Convolver) Prime(n int) {
	if n <= 0 || len(c.offsets) == 0 || !c.fftFaster(n) {
		return
	}
	N, _ := c.blockPlan(n)
	c.plan(N)
}

// fftFaster estimates both paths' cost in units of one tap multiply-add.
func (c *Convolver) fftFaster(n int) bool {
	direct := float64(n) * float64(len(c.offsets))
	N, B := c.blockPlan(n)
	blocks := (n + B - 1) / B
	m := N / 2
	// Per block: one forward and one inverse half-size FFT plus O(N) of
	// untangling, spectral multiply and overlap-add.
	perBlock := 2*float64(m)*math.Log2(float64(m))*fftCostWeight + 3*float64(N)
	return perBlock*float64(blocks) < direct
}

// blockPlan picks the padded FFT length N and the input block length B for
// an n-sample input: a single block when the input is short relative to
// the kernel, bounded blocks (≈3 kernel lengths) for very long inputs so
// scratch memory stays flat.
func (c *Convolver) blockPlan(n int) (N, B int) {
	L := c.kernLen
	want := n
	if want > 3*L {
		want = 3 * L
	}
	N = NextPow2(want + L - 1)
	if N < 64 {
		N = 64
	}
	return N, N - L + 1
}

// applyDirect is the sparse tapped-delay-line loop.
//
//ecolint:hotpath pure in-place multiply-add loop
func (c *Convolver) applyDirect(out, x []float64) {
	for t, off := range c.offsets {
		g := c.gains[t]
		dst := out[off : off+len(x)]
		for i, v := range x {
			dst[i] += g * v
		}
	}
}

// fftPlan caches everything one padded length needs: the shared real-FFT
// plan (twiddles + untangling roots, from the package-level RFFT cache),
// the kernel spectrum, and a pool of scratch buffers.
type fftPlan struct {
	rp *RFFTPlan    // shared transform plan for padded length N
	h  []complex128 // kernel spectrum, bins 0..N/2
	// pool of *convScratch
	pool sync.Pool
}

type convScratch struct {
	xs    []complex128 // N/2+1 spectrum bins
	block []float64    // N-sample time-domain block
}

// plan returns (building if needed) the cached plan for padded length N.
func (c *Convolver) plan(N int) *fftPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.plans[N]; ok {
		return p
	}
	rp := PlanRFFT(N)
	p := &fftPlan{rp: rp}
	p.pool.New = func() any {
		return &convScratch{
			xs:    make([]complex128, rp.HalfLen()),
			block: make([]float64, N),
		}
	}
	// Kernel spectrum: dense kernel, real-packed forward transform.
	dense := make([]float64, N)
	for t, off := range c.offsets {
		dense[off] += c.gains[t]
	}
	p.h = make([]complex128, rp.HalfLen())
	rp.Transform(p.h, dense)
	c.plans[N] = p
	return p
}

// applyFFT is the overlap-add path: split x into B-sample blocks, convolve
// each against the cached kernel spectrum, and add the N-long block results
// (clipped to the true output support) into out. Warm calls (plan built,
// pool populated) allocate nothing.
//
//ecolint:hotpath warm calls run on cached plan state
func (c *Convolver) applyFFT(out, x []float64) {
	N, B := c.blockPlan(len(x))
	//ecolint:ignore hotalloc plan builds FFT state on the first (cold) call only; warm calls hit the plans map
	p := c.plan(N)
	sc := p.pool.Get().(*convScratch)
	defer p.pool.Put(sc)
	block := sc.block
	m := N / 2
	outLen := c.OutLen(len(x))
	for start := 0; start < len(x); start += B {
		end := start + B
		if end > len(x) {
			end = len(x)
		}
		nb := copy(block, x[start:end])
		for i := nb; i < N; i++ {
			block[i] = 0
		}
		p.rp.Transform(sc.xs, block)
		for k := 0; k <= m; k++ {
			sc.xs[k] *= p.h[k]
		}
		p.rp.Inverse(block, sc.xs)
		// The block's true support is [start, start+nb+L-1); anything
		// beyond is FFT roundoff of an exact zero.
		lim := nb + c.kernLen - 1
		if start+lim > outLen {
			lim = outLen - start
		}
		dst := out[start : start+lim]
		for i := range dst {
			dst[i] += block[i]
		}
	}
}

func cconj(z complex128) complex128 { return complex(real(z), -imag(z)) }

// mulI multiplies by i; mulNegI by −i — cheaper than complex multiply.
func mulI(z complex128) complex128    { return complex(-imag(z), real(z)) }
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }
