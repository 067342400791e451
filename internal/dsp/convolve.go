package dsp

// The channel simulator's hot path is linear convolution of a waveform with
// a tapped-delay-line impulse response: a few hundred sparse taps spread
// over tens of thousands of samples (the image-source reverberation of a
// 20 m wall at 1 MS/s). The symmetric image sources arrive at equal delays,
// so the constructor merges taps that land on one sample: a common-wall
// link's 343 arrivals become about 85 taps, in clusters a few samples wide
// with long empty gaps between them.
//
// One kernel runs every call: direct sparse convolution, O(len(x)·taps),
// blocked over the output. Each 2048-sample block of out is swept by every
// tap, four taps that cover the block at a time, so a cluster's taps share
// one pass over the block. The merged taps of a real link make a whole
// round slot thin, and the kernel needs no state beyond the taps, so a
// Convolver is immutable and allocates nothing per call.

// Convolver convolves real signals with a fixed sparse kernel. It is
// immutable once built, so it is safe for concurrent use.
type Convolver struct {
	offsets []int
	gains   []float64
	kernLen int // last offset + 1 (dense kernel length); 0 for empty kernels
}

// NewSparseConvolver builds a convolver for the tapped-delay-line kernel
// h[offsets[i]] += gains[i]. Offsets must be non-negative; the slices must
// have equal length. The caller keeps ownership of neither slice.
//
// Taps that land on one offset merge into one tap, at that offset's first
// position in the list, whose gain is their sum taken in list order from
// zero: exactly the dense kernel entry h[off] of the unmerged taps.
func NewSparseConvolver(offsets []int, gains []float64) *Convolver {
	if len(offsets) != len(gains) {
		panic("dsp: NewSparseConvolver offset/gain length mismatch")
	}
	c := &Convolver{
		offsets: make([]int, 0, len(offsets)),
		gains:   make([]float64, 0, len(gains)),
	}
	// While the offsets never decrease (a channel's arrivals come sorted by
	// delay), a repeat can only be the last merged tap. The first step back
	// indexes every merged offset.
	var index map[int]int // offset → merged tap index
	for t, off := range offsets {
		if off < 0 {
			panic("dsp: NewSparseConvolver negative offset")
		}
		i := len(c.offsets) - 1
		if i < 0 || off != c.offsets[i] {
			if index == nil && i >= 0 && off < c.offsets[i] {
				index = make(map[int]int, len(offsets))
				for j, o := range c.offsets {
					index[o] = j
				}
			}
			var ok bool
			if i, ok = index[off]; !ok { // a nil index holds nothing
				i = len(c.offsets)
				c.offsets = append(c.offsets, off)
				c.gains = append(c.gains, 0)
				if index != nil {
					index[off] = i
				}
			}
		}
		c.gains[i] += gains[t]
		c.kernLen = max(c.kernLen, off+1)
	}
	return c
}

// Taps returns the number of kernel taps after coincident offsets merge.
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

// directBlock is the output block the direct kernel sweeps every tap over:
// 2048 samples (16 KB) of out, plus the x windows of a cluster of nearby
// taps, stay in the first-level caches while the taps pass over them.
const directBlock = 2048

// ApplyTo adds the linear convolution of x with the kernel into out, which
// must be zeroed (or hold a signal to accumulate onto) and at least
// OutLen(len(x)) long.
//
// It is the tapped-delay-line loop, blocked over the output. Each block of
// out is swept by every tap in tap order; four consecutive taps that all
// cover the block run as one pass that loads and stores each output sample
// once. Every output sample still sums its taps one at a time in tap
// order, so the result is bit-identical to the tap-by-tap loop.
//
//ecolint:hotpath every Transmit runs it; it must not allocate
func (c *Convolver) ApplyTo(out, x []float64) {
	n := len(x)
	outLen := c.OutLen(n)
	if len(out) < outLen {
		panic("dsp: ApplyTo output buffer too short")
	}
	offs, gains := c.offsets, c.gains
	for lo := 0; lo < outLen; lo += directBlock {
		hi := min(lo+directBlock, outLen)
		for t := 0; t < len(offs); {
			if t+4 <= len(offs) {
				o0, o1, o2, o3 := offs[t], offs[t+1], offs[t+2], offs[t+3]
				if max(o0, o1, o2, o3) <= lo && min(o0, o1, o2, o3)+n >= hi {
					d := out[lo:hi]
					a0 := x[lo-o0:][:len(d)]
					a1 := x[lo-o1:][:len(d)]
					a2 := x[lo-o2:][:len(d)]
					a3 := x[lo-o3:][:len(d)]
					g0, g1, g2, g3 := gains[t], gains[t+1], gains[t+2], gains[t+3]
					for i := range d {
						s := d[i]
						s += g0 * a0[i]
						s += g1 * a1[i]
						s += g2 * a2[i]
						s += g3 * a3[i]
						d[i] = s
					}
					t += 4
					continue
				}
			}
			// Tap t covers out[off, off+n): add its part of the block.
			off := offs[t]
			if from, to := max(lo, off), min(hi, off+n); from < to {
				g := gains[t]
				d := out[from:to]
				a := x[from-off:][:len(d)]
				for i := range d {
					d[i] += g * a[i]
				}
			}
			t++
		}
	}
}
