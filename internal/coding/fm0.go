package coding

import (
	"errors"
	"math"
	"sync"
)

// FM0 (bi-phase space) coding for the uplink (§3.4): the level always
// inverts at every symbol boundary; a bit 0 additionally inverts mid-symbol
// while a bit 1 holds its level across the symbol window. The decoder
// therefore looks for the presence or absence of a mid-symbol transition
// rather than interval durations, which is what makes it robust to clock
// drift in a battery-free node.

// FM0Encode converts bits to one baseband level (+1/−1) per half-symbol.
// The sequence starts from level +1 by convention; output length is
// 2·len(bits). Each bit must be 0 or 1.
func FM0Encode(bits []byte) ([]float64, error) {
	out := make([]float64, 0, 2*len(bits))
	level := 1.0
	for _, b := range bits {
		switch b {
		case 0:
			// Transition at the symbol middle.
			out = append(out, level, -level)
		case 1:
			// Constant level across the symbol.
			out = append(out, level, level)
		default:
			return nil, errors.New("coding: FM0 bits must be 0 or 1")
		}
		// Mandatory inversion at the symbol boundary.
		level = -out[len(out)-1]
	}
	return out, nil
}

// FM0DecodeHard performs hard-decision decoding of half-symbol levels
// (output of FM0Encode possibly corrupted): a bit is 0 when the two halves
// differ in sign, 1 when they match. It needs no reference level.
func FM0DecodeHard(halves []float64) []byte {
	n := len(halves) / 2
	bits := make([]byte, n)
	for i := 0; i < n; i++ {
		a, b := halves[2*i], halves[2*i+1]
		if a*b >= 0 {
			bits[i] = 1
		}
	}
	return bits
}

// FM0DecodeML is the maximum-likelihood sequence decoder the reader uses
// (§5.1). Given noisy half-symbol samples it runs a two-state Viterbi over
// the FM0 trellis (state = current level sign), which outperforms
// per-symbol hard decisions because FM0 has memory: the level must invert
// at every boundary, so an isolated sign flip is detectable.
func FM0DecodeML(halves []float64) []byte {
	n := len(halves) / 2
	if n == 0 {
		return nil
	}
	return FM0DecodeMLAppend(make([]byte, 0, n), halves)
}

type fm0Node struct {
	cost float64
	prev int8 // previous state
	bit  byte
}

// fm0TrellisPool recycles the Viterbi trellis between decodes so the warm
// decode path allocates nothing.
var fm0TrellisPool = sync.Pool{New: func() any { return new([][2]fm0Node) }}

// FM0DecodeMLAppend is FM0DecodeML appending into dst: the trellis comes
// from a pool, so when dst has spare capacity for the decoded bits the call
// performs zero steady-state allocations. The decoded bits are byte-for-byte
// identical to FM0DecodeML's.
//
//ecolint:hotpath pooled trellis; warm decodes into a caller buffer allocate nothing
func FM0DecodeMLAppend(dst []byte, halves []float64) []byte {
	n := len(halves) / 2
	if n == 0 {
		return dst
	}
	const (
		statePos = 0 // next symbol starts at +1
		stateNeg = 1 // next symbol starts at −1
	)
	tp := fm0TrellisPool.Get().(*[][2]fm0Node)
	if cap(*tp) < n+1 {
		//ecolint:ignore hotalloc trellis grows only until the pool converges on the largest frame
		*tp = make([][2]fm0Node, n+1)
	}
	// trellis[i][s] is the best path ending before symbol i in state s.
	trellis := (*tp)[:n+1]
	trellis[0][statePos] = fm0Node{cost: 0}
	trellis[0][stateNeg] = fm0Node{cost: 0}
	// Reset whole nodes, not just costs: samples large enough to overflow
	// sq() leave nodes unreachable, and the traceback then reads their
	// prev/bit, which must not be left over from an earlier decode.
	inf := math.Inf(1)
	for i := 1; i <= n; i++ {
		trellis[i][0] = fm0Node{cost: inf}
		trellis[i][1] = fm0Node{cost: inf}
	}

	levelOf := func(s int) float64 {
		if s == statePos {
			return 1
		}
		return -1
	}
	for i := 0; i < n; i++ {
		a, b := halves[2*i], halves[2*i+1]
		for s := 0; s < 2; s++ {
			base := trellis[i][s].cost
			if math.IsInf(base, 1) {
				continue
			}
			l := levelOf(s)
			// Bit 0: halves are (l, −l); next level is the inversion of −l = l,
			// so the next state equals s... wait: next level = −(last half) =
			// −(−l) = l → next state s.
			{
				cost := base + sq(a-l) + sq(b+l)
				next := s
				if cost < trellis[i+1][next].cost {
					trellis[i+1][next] = fm0Node{cost: cost, prev: int8(s), bit: 0}
				}
			}
			// Bit 1: halves are (l, l); next level = −l → state flips.
			{
				cost := base + sq(a-l) + sq(b-l)
				next := 1 - s
				if cost < trellis[i+1][next].cost {
					trellis[i+1][next] = fm0Node{cost: cost, prev: int8(s), bit: 1}
				}
			}
		}
	}
	// Trace back from the cheaper final state.
	s := statePos
	if trellis[n][stateNeg].cost < trellis[n][statePos].cost {
		s = stateNeg
	}
	base := len(dst)
	if cap(dst)-base < n {
		//ecolint:ignore hotalloc growth only when the caller's buffer lacks capacity; the zero-alloc contract requires a sized dst
		nd := make([]byte, base, base+n)
		copy(nd, dst)
		dst = nd
	}
	dst = dst[:base+n]
	for i := n; i > 0; i-- {
		dst[base+i-1] = trellis[i][s].bit
		s = int(trellis[i][s].prev)
	}
	fm0TrellisPool.Put(tp)
	return dst
}

func sq(x float64) float64 { return x * x }
