package dsp

import (
	"math"
	"math/rand/v2"
	"testing"

	"ecocapsule/internal/keyrand"
)

// awgnOracle is what AddAWGN is pinned to: after the prefix ops (an even
// byte draws Gaussian(1), an odd one Uniform()), x[i] += NormFloat64()·σ
// from math/rand/v2 over keyrand's stream, sample by sample. It returns
// the source, positioned after the last draw.
func awgnOracle(x []float64, seed int64, sigma float64, prefix []byte) *keyrand.Source {
	src := keyrand.New(uint64(seed))
	rng := rand.New(src)
	for _, op := range prefix {
		if op%2 == 0 {
			rng.NormFloat64()
		} else {
			rng.Float64()
		}
	}
	for i := range x {
		x[i] += rng.NormFloat64() * sigma
	}
	return src
}

// noisePrefix runs the prefix ops on n.
func noisePrefix(n *NoiseSource, prefix []byte) {
	for _, op := range prefix {
		if op%2 == 0 {
			n.Gaussian(1)
		} else {
			n.Uniform()
		}
	}
}

// firstBitDiff is the first index where a and b differ in any bit, or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// FuzzAddAWGN holds AddAWGN, and ScaleAddAWGN at scale 1, bit for bit to
// the standard library's stream over keyrand: the same noise on the same
// signal, and the source left where the oracle's is, so the next draw
// matches too.
func FuzzAddAWGN(f *testing.F) {
	f.Add(int64(7), 0.01, uint16(4096), []byte{})
	f.Add(int64(-3), 1.0, uint16(1), []byte{0, 1, 1})
	f.Add(int64(1<<40), 0.0, uint16(300), []byte{1})
	f.Fuzz(func(t *testing.T, seed int64, sigma float64, n uint16, prefix []byte) {
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			t.Skip()
		}
		sig := NewNoiseSource(seed ^ 0x5eed)
		x := make([]float64, int(n)%20000)
		for i := range x {
			x[i] = sig.Gaussian(1)
		}
		want := append([]float64(nil), x...)
		osrc := awgnOracle(want, seed, sigma, prefix)

		got := append([]float64(nil), x...)
		ns := NewNoiseSource(seed)
		noisePrefix(ns, prefix)
		ns.AddAWGN(got, sigma)
		if k := firstBitDiff(got, want); k >= 0 {
			t.Fatalf("seed=%d σ=%g n=%d prefix=%d: sample %d is %v, want %v", seed, sigma, len(x), len(prefix), k, got[k], want[k])
		}
		if g, w := ns.Uniform(), rand.New(osrc).Float64(); g != w {
			t.Fatalf("draw after AddAWGN: %v, want %v", g, w)
		}

		got = append(got[:0], x...)
		ns = NewNoiseSource(seed)
		noisePrefix(ns, prefix)
		ns.ScaleAddAWGN(got, 1, sigma)
		if k := firstBitDiff(got, want); k >= 0 {
			t.Fatalf("ScaleAddAWGN at scale 1: sample %d differs", k)
		}
	})
}

// TestScaleAddAWGNMatchesScaleThenAdd: one pass of ScaleAddAWGN is the
// scaling loop followed by AddAWGN, bit for bit.
func TestScaleAddAWGNMatchesScaleThenAdd(t *testing.T) {
	src := NewNoiseSource(3)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = src.Gaussian(2)
	}
	x[10], x[11] = 0, math.Copysign(0, -1)
	for _, scale := range []float64{1, 1 / 3.7, 0.5, 1e-300} {
		want := append([]float64(nil), x...)
		for i := range want {
			want[i] *= scale
		}
		NewNoiseSource(11).AddAWGN(want, 0.01)
		got := NewNoiseSource(11).ScaleAddAWGN(append([]float64(nil), x...), scale, 0.01)
		if k := firstBitDiff(got, want); k >= 0 {
			t.Fatalf("scale %g: sample %d is %v, want %v", scale, k, got[k], want[k])
		}
	}
}

// TestAddAWGNSlowPathExercised: a 200k-sample stream takes NormFloat64's
// slow path in both of its forms — the base strip's tail draw (strip 0)
// and the wedge test of the other strips — and AddAWGN still matches the
// oracle, so the hand-off to the shared rand.Rand is covered, not just the
// inline fast path.
func TestAddAWGNSlowPathExercised(t *testing.T) {
	const n, seed = 200000, 0xABC
	src := keyrand.New(seed)
	rng := rand.New(src)
	var base, wedge int
	for range n {
		u := keyrand.Mix(src.State)
		j, k := int32(u), u>>32&0x7f
		if absInt32(j) >= zigK[k] {
			if k == 0 {
				base++
			} else {
				wedge++
			}
		}
		rng.NormFloat64()
	}
	if base == 0 || wedge == 0 {
		t.Fatalf("slow draws: %d base strip, %d wedge; want both > 0", base, wedge)
	}
	if share := float64(base+wedge) / n; share > 0.03 {
		t.Errorf("slow-path share %.4f, want < 0.03", share)
	}
	want := make([]float64, n)
	awgnOracle(want, seed, 0.3, nil)
	got := NewNoiseSource(seed).AddAWGN(make([]float64, n), 0.3)
	if k := firstBitDiff(got, want); k >= 0 {
		t.Fatalf("sample %d is %v, want %v", k, got[k], want[k])
	}
	t.Logf("slow draws: %d base strip, %d wedge of %d", base, wedge, n)
}

// TestAddAWGNZeroAlloc: the noise pass allocates nothing, slow draws
// included.
func TestAddAWGNZeroAlloc(t *testing.T) {
	x := make([]float64, 20000)
	ns := NewNoiseSource(5)
	if a := testing.AllocsPerRun(10, func() { ns.AddAWGN(x, 0.01) }); a != 0 {
		t.Errorf("AddAWGN allocates %.1f objects per call, want 0", a)
	}
}

// BenchmarkAddAWGNRound times the capture noise of a 3-slot 2 kbps
// waveform round: 315k samples.
func BenchmarkAddAWGNRound(b *testing.B) {
	x := make([]float64, 315000)
	ns := NewNoiseSource(1)
	b.ReportAllocs()
	for b.Loop() {
		ns.AddAWGN(x, 0.01)
	}
}
