package reader

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/waveform"
)

// TestAcousticReadRoundMatchesPerNodeReads: the 3-slot round matches three
// 1-slot rounds. Every slot must decode a CRC-valid frame from the right
// node — bit integrity is enforced by the protocol CRC, so a corrupted slot
// cannot pass — and the recovered values must agree with the one-slot
// reads up to the node's sensor measurement noise (each read is a fresh
// physical sample, so exact equality is not expected).
func TestAcousticReadRoundMatchesPerNodeReads(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		return sensors.Environment{TemperatureC: 20 + 5*pos.X, RelativeHumidity: 60}
	})
	// Positions sit on reliable links: this wall has standing-wave fades at
	// ~0.2 m pitch (x=1.1 or 1.3 would land in one — the §3.5 fine-tuning
	// motivation), and the round must be tested where the one-slot reads
	// themselves decode.
	handles := []uint16{0x41, 0x42, 0x43}
	for i, h := range handles {
		deployNode(t, r, h, 0.8+0.2*float64(i))
	}
	if up := r.Charge(0.3); up != len(handles) {
		t.Fatalf("%d/%d nodes powered up", up, len(handles))
	}
	cfg := DefaultAcousticConfig()

	want := make([][]float64, len(handles))
	for i, h := range handles {
		vals, err := acousticRead(r, h, sensors.TypeTempHumidity, cfg)
		if err != nil {
			t.Fatalf("one-slot read %#04x: %v", h, err)
		}
		want[i] = vals
	}

	got := r.AcousticReadRound(handles, sensors.TypeTempHumidity, cfg)
	if len(got) != len(handles) {
		t.Fatalf("round returned %d results for %d handles", len(got), len(handles))
	}
	for i, res := range got {
		if res.Err != nil {
			t.Fatalf("slot %d (%#04x): %v", i, res.Handle, res.Err)
		}
		if res.Handle != handles[i] {
			t.Errorf("slot %d handle %#04x, want %#04x", i, res.Handle, handles[i])
		}
		if len(res.Values) != len(want[i]) {
			t.Fatalf("slot %d values %v, want %v", i, res.Values, want[i])
		}
		// Two reads of the same sensor differ by its measurement noise:
		// σ=0.15 °C and σ=1.0 %RH per sample. A 6σ band on the difference
		// still catches any decode that returned another node's frame.
		tol := []float64{1.5, 8.5}
		for j := range res.Values {
			if math.Abs(res.Values[j]-want[i][j]) > tol[j] {
				t.Errorf("slot %d value %d: batched %g vs one-slot %g",
					i, j, res.Values[j], want[i][j])
			}
		}
	}
}

// TestAcousticReadRoundUnknownNode: unknown handles fail per-slot without
// poisoning the rest of the round.
func TestAcousticReadRoundUnknownNode(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	r, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	deployNode(t, r, 0x51, 1.0)
	r.Charge(0.3)
	got := r.AcousticReadRound([]uint16{0x51, 0x99}, sensors.TypeTempHumidity, DefaultAcousticConfig())
	if got[0].Err != nil {
		t.Errorf("known node failed: %v", got[0].Err)
	}
	if got[1].Err == nil {
		t.Error("unknown node should error")
	}
	if out := r.AcousticReadRound(nil, sensors.TypeTempHumidity, DefaultAcousticConfig()); len(out) != 0 {
		t.Errorf("empty round returned %d results", len(out))
	}
}

// TestReaderSharedLinkCache: each reader owns a private link cache that
// its links' first waveform use fills, one miss and one entry per distinct
// link; Deploy evaluates only the link gain and leaves the cache alone.
func TestReaderSharedLinkCache(t *testing.T) {
	r1, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := r1.LinkCache()
	if cache == nil {
		t.Fatal("New must allocate a link cache")
	}
	deployNode(t, r1, 0x61, 1.2)
	deployNode(t, r1, 0x62, 1.6)
	if st := cache.Stats(); st != (channel.CacheStats{}) {
		t.Fatalf("deploy stats %+v, want an untouched cache", st)
	}
	query := protocol.Packet{Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{0}}
	if _, err := r1.AcousticBroadcast(query, DefaultAcousticConfig()); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("first broadcast stats %+v, want 2 misses / 2 entries", st)
	}
	// The reader keeps each link's channel: later waveform use does not
	// look it up again.
	if _, err := r1.AcousticBroadcast(query, DefaultAcousticConfig()); err != nil {
		t.Fatal(err)
	}
	if again := cache.Stats(); again != st {
		t.Fatalf("second broadcast stats %+v, want %+v", again, st)
	}
	if r1.LinkCache() != cache {
		t.Error("LinkCache accessor does not return the reader's cache")
	}

	// Another reader owns a distinct cache.
	r2, err := New(wallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r2.LinkCache() == cache {
		t.Error("New must allocate a private cache")
	}
}

// roundReader builds a charged reader on the common wall with one capsule
// per (handle, x) pair, reading a position-dependent temperature.
func roundReader(tb testing.TB, handles []uint16, xs []float64) *Reader {
	tb.Helper()
	r, err := New(wallConfig())
	if err != nil {
		tb.Fatal(err)
	}
	r.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		return sensors.Environment{TemperatureC: 18 + 4*pos.X, RelativeHumidity: 55}
	})
	for i, h := range handles {
		deployNode(tb, r, h, xs[i])
	}
	if up := r.Charge(0.3); up != len(handles) {
		tb.Fatalf("%d/%d nodes powered up", up, len(handles))
	}
	return r
}

// roundConfig is the 2 kbps round of the acoustic_round benchmark workload.
func roundConfig() AcousticConfig {
	cfg := DefaultAcousticConfig()
	cfg.UplinkBitrate = 2000
	return cfg
}

// requireSameResults fails unless got and want carry the same handles,
// errors and bit-identical values.
func requireSameResults(t *testing.T, what string, got, want []AcousticReadResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Handle != w.Handle || fmt.Sprint(g.Err) != fmt.Sprint(w.Err) || len(g.Values) != len(w.Values) {
			t.Fatalf("%s slot %d: %#04x %v %v, want %#04x %v %v", what, i, g.Handle, g.Err, g.Values, w.Handle, w.Err, w.Values)
		}
		for j := range w.Values {
			if math.Float64bits(g.Values[j]) != math.Float64bits(w.Values[j]) {
				t.Fatalf("%s slot %d value %d: %x, want %x", what, i, j, g.Values[j], w.Values[j])
			}
		}
	}
}

// TestAcousticReadRoundRepeatedHandle: a handle listed twice gets one slot
// and an error for the repeat, so one capsule never transmits twice (or on
// two goroutines) in one round. The round equals the deduplicated round.
func TestAcousticReadRoundRepeatedHandle(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	handles, xs := []uint16{0x41, 0x42}, []float64{0.6, 0.8}
	got := roundReader(t, handles, xs).AcousticReadRound([]uint16{0x41, 0x42, 0x41}, sensors.TypeTempHumidity, roundConfig())
	want := roundReader(t, handles, xs).AcousticReadRound(handles, sensors.TypeTempHumidity, roundConfig())
	if len(got) != 3 || got[2].Handle != 0x41 || got[2].Err == nil || got[2].Values != nil {
		t.Fatalf("repeat of 0x41 = %+v, want an error result", got[len(got)-1])
	}
	if errors.Is(got[2].Err, ErrAcousticDecode) {
		t.Errorf("repeat error %v must not read as a decode failure (callers re-read those)", got[2].Err)
	}
	for i, res := range want {
		if res.Err != nil {
			t.Fatalf("deduplicated round slot %d: %v", i, res.Err)
		}
	}
	requireSameResults(t, "round with a repeat", got[:2], want)
}

// TestAcousticReadRoundBitIdenticalAcrossGOMAXPROCS: the per-link
// transmit fan-out sums its outputs in slot order, so the decoded values
// are bit-identical whatever the worker count.
func TestAcousticReadRoundBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	handles, xs := []uint16{0x41, 0x42, 0x43}, []float64{0.6, 0.8, 1.5}
	var want []AcousticReadResult
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := roundReader(t, handles, xs).AcousticReadRound(handles, sensors.TypeTempHumidity, roundConfig())
		runtime.GOMAXPROCS(prev)
		if want == nil {
			for i, res := range got {
				if res.Err != nil {
					t.Fatalf("GOMAXPROCS=1 slot %d: %v", i, res.Err)
				}
			}
			want = got
			continue
		}
		requireSameResults(t, fmt.Sprintf("GOMAXPROCS=%d", procs), got, want)
	}
}

// TestAcousticReadRoundBitIdenticalAfterShorterRound: the reader keeps its
// round carrier between rounds, and a full round after a shorter re-read
// round (another carrier length) equals that round on a fresh reader. The
// re-read reads a capsule outside the full round, so the full round's
// capsules sample the same values on both readers.
func TestAcousticReadRoundBitIdenticalAfterShorterRound(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	all, xs := []uint16{0x41, 0x42, 0x43, 0x44}, []float64{0.6, 0.8, 1.5, 1.0}
	full := all[:3]
	cfg := roundConfig()

	fresh := roundReader(t, all, xs).AcousticReadRound(full, sensors.TypeTempHumidity, cfg)
	for i, res := range fresh {
		if res.Err != nil {
			t.Fatalf("fresh reader slot %d: %v", i, res.Err)
		}
	}

	carrier := func(r *Reader) []float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.carrier.samples
	}
	r := roundReader(t, all, xs)
	if short := r.AcousticReadRound(all[3:], sensors.TypeTempHumidity, cfg); short[0].Err != nil {
		t.Fatalf("re-read round: %v", short[0].Err)
	}
	shortCarrier := carrier(r)
	got := r.AcousticReadRound(full, sensors.TypeTempHumidity, cfg)
	requireSameResults(t, "full round after a re-read round", got, fresh)
	if n := len(carrier(r)); n <= len(shortCarrier) {
		t.Fatalf("full round carrier has %d samples, want more than the re-read's %d", n, len(shortCarrier))
	}

	// A second round of the same shape reuses the carrier it rendered.
	before := carrier(r)
	r.AcousticReadRound(full, sensors.TypeTempHumidity, cfg)
	if after := carrier(r); &after[0] != &before[0] {
		t.Error("a round of the same shape rendered a new carrier instead of reusing it")
	}
}

// TestRoundCarrierPrefixBitIdentical: a full → single → full round
// sequence renders the carrier once. The single round reads a prefix of the
// full round's carrier, equal on IEEE bits to a fresh render of its own
// length, so it decodes exactly what the same round decodes on a fresh
// reader.
func TestRoundCarrierPrefixBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	all, xs := []uint16{0x41, 0x42, 0x43, 0x44}, []float64{0.6, 0.8, 1.5, 1.0}
	full, single := all[:3], all[3:]
	cfg := roundConfig()
	carrier := func(r *Reader) []float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.carrier.samples
	}

	r := roundReader(t, all, xs)
	r.AcousticReadRound(full, sensors.TypeTempHumidity, cfg)
	rendered := carrier(r)
	got := r.AcousticReadRound(single, sensors.TypeTempHumidity, cfg)
	r.AcousticReadRound(full, sensors.TypeTempHumidity, cfg)
	if after := carrier(r); &after[0] != &rendered[0] || len(after) != len(rendered) {
		t.Fatal("the single round or the second full round rendered a new carrier")
	}
	syn := waveform.NewSynth(cfg.SampleRate)
	short := len(rendered) / 2
	if p := r.roundCarrier(syn, short); &p[0] != &rendered[0] || len(p) != syn.Samples(float64(short)/cfg.SampleRate+2e-3) {
		t.Fatal("a shorter round's carrier is not a prefix of the rendered one")
	}

	fresh := roundReader(t, all, xs)
	want := fresh.AcousticReadRound(single, sensors.TypeTempHumidity, cfg)
	if want[0].Err != nil {
		t.Fatalf("single round on a fresh reader: %v", want[0].Err)
	}
	requireSameResults(t, "single round on a prefix carrier", got, want)
	own := carrier(fresh)
	if len(own) >= len(rendered) {
		t.Fatalf("single round carrier has %d samples, want fewer than the full round's %d", len(own), len(rendered))
	}
	render := syn.CBW(physics.CarrierHz, 1.0, (float64(len(own))+0.5)/cfg.SampleRate)
	if len(render) != len(own) {
		t.Fatalf("fresh render has %d samples, want %d", len(render), len(own))
	}
	for i, v := range render {
		if math.Float64bits(v) != math.Float64bits(rendered[i]) || math.Float64bits(v) != math.Float64bits(own[i]) {
			t.Fatalf("sample %d: prefix %x, fresh render %x (single round's own %x)", i, rendered[i], v, own[i])
		}
	}
}

// TestAcousticReadRoundConcurrentMatchesSerial: rounds that run at once
// take distinct round buffers and decoder scratches from the shared free
// lists and decode the serial results bit for bit —
// two rounds over disjoint capsules on one reader, and one round each on
// two readers. The round buffer list then holds at most one set per round
// that ran at once.
func TestAcousticReadRoundConcurrentMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	all, xs := []uint16{0x41, 0x42, 0x43, 0x44}, []float64{0.6, 0.8, 1.5, 1.0}
	groups := [][]uint16{all[:2], all[2:]}
	cfg := roundConfig()
	before := roundBuffers.Len()
	// rounds runs round i on reader readers[i] for each i, at once when
	// concurrent is set.
	rounds := func(readers []*Reader, concurrent bool) [][]AcousticReadResult {
		out := make([][]AcousticReadResult, len(groups))
		if !concurrent {
			for i, g := range groups {
				out[i] = readers[i].AcousticReadRound(g, sensors.TypeTempHumidity, cfg)
			}
			return out
		}
		type done struct {
			i   int
			res []AcousticReadResult
		}
		ch := make(chan done)
		for i, g := range groups {
			go func() { ch <- done{i, readers[i].AcousticReadRound(g, sensors.TypeTempHumidity, cfg)} }()
		}
		for range groups {
			d := <-ch
			out[d.i] = d.res
		}
		return out
	}
	oneReader := func() []*Reader {
		r := roundReader(t, all, xs)
		return []*Reader{r, r}
	}
	twoReaders := func() []*Reader {
		return []*Reader{roundReader(t, all, xs), roundReader(t, all, xs)}
	}
	for _, c := range []struct {
		name    string
		readers func() []*Reader
	}{{"one reader", oneReader}, {"two readers", twoReaders}} {
		want := rounds(c.readers(), false)
		got := rounds(c.readers(), true)
		for i := range want {
			for j, res := range want[i] {
				if res.Err != nil {
					t.Fatalf("%s: serial round %d slot %d: %v", c.name, i, j, res.Err)
				}
			}
			requireSameResults(t, fmt.Sprintf("%s: concurrent round %d", c.name, i), got[i], want[i])
		}
	}
	if after := roundBuffers.Len(); after > max(before, len(groups)) {
		t.Errorf("%d round buffer sets after rounds two at a time (%d before), want at most %d", after, before, len(groups))
	}
}

// roundAllocBudget bounds what a warm 3-slot round allocates, in bytes:
// its results, slot plans, the fan-out's bookkeeping and each slot's
// decoded bits and values (~8 KB). The capture, which the receptions are
// transmitted into, each slot's modulated waveform, the decoder's front
// end and the carrier come from recycled storage; any one of them
// allocated per round (0.37–5 MB) breaks the bound.
const roundAllocBudget = 64 << 10

// TestAcousticRoundAllocs: a warm round of the acoustic_round workload's
// shape allocates at most roundAllocBudget bytes, averaged over rounds.
func TestAcousticRoundAllocs(t *testing.T) {
	handles, xs := []uint16{0x41, 0x42, 0x43}, []float64{0.6, 0.8, 1.5}
	r := roundReader(t, handles, xs)
	cfg := roundConfig()
	for i, res := range r.AcousticReadRound(handles, sensors.TypeTempHumidity, cfg) { // warm plans, carrier and buffers
		if res.Err != nil {
			t.Fatalf("warm-up slot %d: %v", i, res.Err)
		}
	}
	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		r.AcousticReadRound(handles, sensors.TypeTempHumidity, cfg)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > roundAllocBudget {
		t.Errorf("a warm 3-slot round allocated %d B, want <= %d", per, roundAllocBudget)
	} else {
		t.Logf("a warm 3-slot round allocated %d B in %d objects", per, (after.Mallocs-before.Mallocs)/rounds)
	}
}

// BenchmarkAcousticReadRound is the acoustic_round workload without the
// benchmark harness: one reader on the common wall, capsules at x = 0.6,
// 0.8 and 1.5 m, a 2 kbps uplink, and per op a charge then one round.
func BenchmarkAcousticReadRound(b *testing.B) {
	handles, xs := []uint16{0x41, 0x42, 0x43}, []float64{0.6, 0.8, 1.5}
	r := roundReader(b, handles, xs)
	cfg := roundConfig()
	r.AcousticReadRound(handles, sensors.TypeTempHumidity, cfg) // warm plans and carrier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Charge(0.3)
		r.AcousticReadRound(handles, sensors.TypeTempHumidity, cfg)
	}
}
