package protocol

import (
	"math/rand/v2"

	"ecocapsule/internal/keyrand"
)

// Slotter implements the node side of the TDMA inventory (§3.4): on a
// Query with parameter Q the node draws a random slot in [0, 2^Q) and
// counts down on each QueryRep, replying when its counter reaches zero —
// the framed slotted ALOHA of Gen2.
type Slotter struct {
	rng  *rand.Rand
	slot int
	// inRound reports whether the node currently holds a live counter.
	inRound bool
}

// NewSlotter returns a slotter seeded deterministically.
func NewSlotter(seed int64) *Slotter {
	return &Slotter{rng: rand.New(keyrand.New(uint64(seed)))}
}

// BeginRound draws a fresh slot for a round of 2^q slots and returns it.
func (s *Slotter) BeginRound(q int) int {
	if q < 0 {
		q = 0
	}
	if q > 15 {
		q = 15
	}
	s.slot = s.rng.IntN(1 << uint(q))
	s.inRound = true
	return s.slot
}

// ShouldReply reports whether the node replies in the current slot.
func (s *Slotter) ShouldReply() bool { return s.inRound && s.slot == 0 }

// Advance consumes one QueryRep, decrementing the slot counter.
func (s *Slotter) Advance() {
	if s.inRound && s.slot > 0 {
		s.slot--
	}
}

// EndRound clears the round state (after a successful Ack or a Sleep).
func (s *Slotter) EndRound() { s.inRound = false }

// RoundOutcome summarises one inventory round for Q-adaptation.
type RoundOutcome struct {
	Singles    int // slots with exactly one reply (successes)
	Collisions int // slots with more than one reply
	Empties    int // slots with no reply
}

// AdaptQ implements the Gen2-style Q adjustment: grow Q when collisions
// dominate, shrink it when empties dominate, hold otherwise. Returns the
// next Q clamped to [0, 15].
func AdaptQ(q int, o RoundOutcome) int {
	switch {
	case o.Collisions > o.Singles+o.Empties:
		q++
	case o.Empties > 2*(o.Singles+o.Collisions) && q > 0:
		q--
	}
	if q < 0 {
		q = 0
	}
	if q > 15 {
		q = 15
	}
	return q
}

// ExpectedEfficiency returns the throughput efficiency of slotted ALOHA
// with n contenders over 2^q slots: n/S·(1−1/S)^(n−1) successes per slot.
func ExpectedEfficiency(n, q int) float64 {
	if n <= 0 || q < 0 {
		return 0
	}
	s := float64(int(1) << uint(q))
	p := 1.0 / s
	// P(slot has exactly one of n) = n·p·(1−p)^(n−1).
	prob := float64(n) * p
	for i := 0; i < n-1; i++ {
		prob *= 1 - p
	}
	return prob
}
