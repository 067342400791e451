package dsp

import (
	"math/rand/v2"

	"ecocapsule/internal/keyrand"
)

// NoiseSource generates deterministic Gaussian noise for the channel
// simulator. Every experiment seeds its own source so runs are reproducible.
// The stream underneath is keyrand's eight-byte SplitMix64 counter, so a
// fresh source costs a few dozen bytes and no seeding work.
type NoiseSource struct {
	rng *rand.Rand
}

// NewNoiseSource returns a source seeded with the given value.
func NewNoiseSource(seed int64) *NoiseSource {
	return &NoiseSource{rng: rand.New(keyrand.New(uint64(seed)))}
}

// Gaussian returns one sample of zero-mean Gaussian noise with the given
// standard deviation.
func (n *NoiseSource) Gaussian(sigma float64) float64 {
	return n.rng.NormFloat64() * sigma
}

// Uniform returns a uniform sample in [0, 1).
func (n *NoiseSource) Uniform() float64 { return n.rng.Float64() }

// Intn returns a uniform integer in [0, max).
func (n *NoiseSource) Intn(max int) int { return n.rng.IntN(max) }

// AddAWGN adds white Gaussian noise of the given standard deviation to x
// in place and returns x for chaining.
func (n *NoiseSource) AddAWGN(x []float64, sigma float64) []float64 {
	for i := range x {
		x[i] += n.Gaussian(sigma)
	}
	return x
}
