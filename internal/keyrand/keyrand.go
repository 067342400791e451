// Package keyrand is the one seeded generator of the stack: the SplitMix64
// finaliser used both as a tuple hash (Key) and as a counter-based stream
// (Source), after Salmon et al., "Parallel Random Numbers: As Easy as 1,
// 2, 3" (SC'11). A stream is eight bytes of state and seeds in one store,
// so every channel, sensor and capsule can own one without the 4.9 KB
// table and ~10 µs seeding of a math/rand source.
package keyrand

//ecolint:deterministic

// Gamma is the SplitMix64 increment, 2^64 divided by the golden ratio.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 finaliser: a bijective avalanche of one word.
// Mix(x) is the draw a SplitMix64 generator in state x returns next.
func Mix(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Key hashes a tuple of words into one well-mixed word. Every random
// decision that must not depend on goroutine scheduling — span IDs in
// telemetry, fault draws in faultinject — is the Key of the tuple that
// names it.
func Key(words ...uint64) uint64 {
	var h uint64
	for _, w := range words {
		h = Mix(h ^ w)
	}
	return h
}

// Source is a SplitMix64 stream: draw i of the stream seeded with s is
// Mix(s + i·Gamma). It implements math/rand/v2's Source, so rand.New over
// it supplies the ziggurat NormFloat64 and the unbiased IntN.
type Source struct {
	// State is the counter: the next draw is Mix(State), after which
	// State advances by Gamma. A loop that draws inline reads and writes
	// it directly.
	State uint64
}

// New returns the stream seeded with seed.
func New(seed uint64) *Source { return &Source{State: seed} }

// Uint64 returns the next draw.
func (s *Source) Uint64() uint64 {
	x := s.State
	s.State += Gamma
	return Mix(x)
}
