package coding

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestFM0DecodeMLAppendMatchesML checks the recycled-trellis append
// decoder against FM0DecodeML byte for byte over seeded noisy inputs,
// including appending after existing content.
func TestFM0DecodeMLAppendMatchesML(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64) + 1
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		halves, err := FM0Encode(bits)
		if err != nil {
			t.Fatal(err)
		}
		for i := range halves {
			halves[i] += rng.NormFloat64() * 0.4
		}
		want := FM0DecodeML(halves)

		got := FM0DecodeMLAppend(nil, halves)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: append decode %v != ML decode %v", trial, got, want)
		}

		prefix := []byte{9, 9, 9}
		withPrefix := FM0DecodeMLAppend(append([]byte(nil), prefix...), halves)
		if !bytes.Equal(withPrefix[:3], prefix) || !bytes.Equal(withPrefix[3:], want) {
			t.Fatalf("trial %d: prefixed append decode %v", trial, withPrefix)
		}
	}
	if got := FM0DecodeMLAppend([]byte{7}, nil); len(got) != 1 || got[0] != 7 {
		t.Errorf("empty halves should return dst unchanged, got %v", got)
	}
}

// TestFM0DecodeMLAppendIgnoresPoolHistory pins that a decode does not
// depend on what the recycled trellis last held: samples that overflow the
// path metric leave every node unreachable, and the result must be the same
// whichever frame was decoded before.
func TestFM0DecodeMLAppendIgnoresPoolHistory(t *testing.T) {
	huge := make([]float64, 64)
	for i := range huge {
		huge[i] = 1e200
	}
	var got [][]byte
	for _, bit := range []byte{1, 0} {
		bits := bytes.Repeat([]byte{bit}, len(huge)/2)
		clean, err := FM0Encode(bits)
		if err != nil {
			t.Fatal(err)
		}
		FM0DecodeMLAppend(nil, clean) // leaves its trellis on the free list
		got = append(got, FM0DecodeMLAppend(nil, huge))
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Fatalf("overflowing decode depends on the previous frame:\nafter ones  %v\nafter zeros %v", got[0], got[1])
	}
}

// TestFM0DecodeMLAppendZeroAlloc pins the warm decode at zero steady-state
// allocations when dst has spare capacity.
func TestFM0DecodeMLAppendZeroAlloc(t *testing.T) {
	bits := make([]byte, 28)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	halves, err := FM0Encode(bits)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(bits))
	dst = FM0DecodeMLAppend(dst, halves) // warm the trellis free list
	if allocs := testing.AllocsPerRun(50, func() {
		dst = FM0DecodeMLAppend(dst[:0], halves)
	}); allocs != 0 {
		t.Errorf("warm FM0DecodeMLAppend allocated %.1f objects/op, want 0", allocs)
	}
}
