package dsp

import (
	"math/rand/v2"

	"ecocapsule/internal/keyrand"
)

// NoiseSource generates deterministic Gaussian noise for the channel
// simulator. Every experiment seeds its own source so runs are reproducible.
// The stream underneath is keyrand's eight-byte SplitMix64 counter, so a
// fresh source costs eight bytes and no seeding work.
type NoiseSource struct {
	src keyrand.Source
}

// NewNoiseSource returns a source seeded with the given value.
func NewNoiseSource(seed int64) *NoiseSource {
	return &NoiseSource{src: keyrand.Source{State: uint64(seed)}}
}

// rng is math/rand/v2 over the source's stream. A rand.Rand keeps no
// state of its own, so a fresh one per call continues the stream.
func (n *NoiseSource) rng() *rand.Rand { return rand.New(&n.src) }

// Gaussian returns one sample of zero-mean Gaussian noise with the given
// standard deviation.
func (n *NoiseSource) Gaussian(sigma float64) float64 {
	return n.rng().NormFloat64() * sigma
}

// Uniform returns a uniform sample in [0, 1).
func (n *NoiseSource) Uniform() float64 { return n.rng().Float64() }

// Intn returns a uniform integer in [0, max).
func (n *NoiseSource) Intn(max int) int { return n.rng().IntN(max) }

// AddAWGN adds white Gaussian noise of the given standard deviation to x
// in place and returns x for chaining: x[i] += Gaussian(sigma), in order.
func (n *NoiseSource) AddAWGN(x []float64, sigma float64) []float64 {
	return n.ScaleAddAWGN(x, 1, sigma)
}

// ScaleAddAWGN scales x and adds white Gaussian noise in one pass:
// x[i] = x[i]·scale + Gaussian(sigma), each product rounded on its own, so
// the result is bit-identical to scaling x and then calling AddAWGN. It
// returns x.
//
// The draws are math/rand/v2's ziggurat NormFloat64 over the source's
// counter, taken inline: each sample reads one Mix of the counter and
// accepts it when it falls inside its strip (zigK, zigW), as NormFloat64
// does for ~97 % of draws. A draw that falls outside goes to
// NormFloat64 itself with the counter positioned at that draw, so the
// stream is NormFloat64's draw for draw, and the calls that follow
// continue it.
//
//ecolint:hotpath one counter mix per sample; the rare slow draw goes to NormFloat64
func (n *NoiseSource) ScaleAddAWGN(x []float64, scale, sigma float64) []float64 {
	state := n.src.State
	for i, v := range x {
		u := keyrand.Mix(state)
		j := int32(u)
		k := u >> 32 & 0x7f
		g := float64(j) * float64(zigW[k])
		if absInt32(j) < zigK[k] {
			state += keyrand.Gamma
		} else {
			n.src.State = state
			g = n.rng().NormFloat64()
			state = n.src.State
		}
		// The conversions round each product, so neither fuses into
		// the sum.
		x[i] = float64(v*scale) + float64(g*sigma)
	}
	n.src.State = state
	return x
}

// absInt32 is |i| as an unsigned word, math/rand/v2's strip test operand.
func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
