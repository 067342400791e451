package keyrand

import (
	"sync"
	"testing"
)

// TestSourceKnownAnswers pins the stream seeded with 0 to the published
// SplitMix64 reference outputs.
func TestSourceKnownAnswers(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	s := New(0)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Errorf("draw %d: got %#016x, want %#016x", i, got, w)
		}
	}
}

// TestSourceDrawIsCounterMix checks the counter-based form: draw i of the
// stream seeded with s is Mix(s + i·Gamma), wrapping included.
func TestSourceDrawIsCounterMix(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63, ^uint64(0)} {
		s := New(seed)
		for i := uint64(0); i < 100; i++ {
			if got, want := s.Uint64(), Mix(seed+i*Gamma); got != want {
				t.Fatalf("seed %#x draw %d: got %#016x, want %#016x", seed, i, got, want)
			}
		}
	}
}

// TestKeyKnownAnswers pins Key. Every span ID in the committed trace
// goldens and every fault draw derives from it, so a change here would
// move those goldens too.
func TestKeyKnownAnswers(t *testing.T) {
	cases := []struct {
		words []uint64
		want  uint64
	}{
		{nil, 0},
		{[]uint64{0}, 0xe220a8397b1dcdaf},
		{[]uint64{42}, 0xbdd732262feb6e95},
		{[]uint64{7, 0x0010, 3}, 0x117675f832f019ea},
		{[]uint64{1, 2, 3, 4, 5, 6, 7}, 0x67806edf29137838},
	}
	for _, c := range cases {
		if got := Key(c.words...); got != c.want {
			t.Errorf("Key(%v) = %#016x, want %#016x", c.words, got, c.want)
		}
	}
}

// TestSourceDeterminism draws one stream per seed on concurrent goroutines
// and compares each with the same stream drawn serially: a stream depends
// on its seed and nothing else.
func TestSourceDeterminism(t *testing.T) {
	const seeds, draws = 16, 1000
	serial := make([][]uint64, seeds)
	for k := range serial {
		s := New(uint64(k))
		for i := 0; i < draws; i++ {
			serial[k] = append(serial[k], s.Uint64())
		}
	}
	concurrent := make([][]uint64, seeds)
	var wg sync.WaitGroup
	for k := range concurrent {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := New(uint64(k))
			out := make([]uint64, draws)
			for i := range out {
				out[i] = s.Uint64()
			}
			concurrent[k] = out
		}(k)
	}
	wg.Wait()
	for k := range serial {
		for i := range serial[k] {
			if serial[k][i] != concurrent[k][i] {
				t.Fatalf("seed %d draw %d: serial %#x, concurrent %#x", k, i, serial[k][i], concurrent[k][i])
			}
		}
	}
}
