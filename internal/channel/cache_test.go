package channel

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"ecocapsule/internal/dsp"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
)

func cacheCfg() Config {
	return Config{
		Structure:   geometry.CommonWall(),
		Source:      geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		Destination: geometry.Vec3{X: 1.6, Y: 10, Z: 0.1},
		PrismAngle:  units.Deg2Rad(60),
		Seed:        3,
	}
}

func testBurst(n int, seed int64) []float64 {
	src := dsp.NewNoiseSource(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = src.Gaussian(1)
	}
	return x
}

// TestCacheWarmMatchesColdByteIdentical is the cache-correctness anchor: a
// channel built through a warm cache must transmit byte-identical
// waveforms to both a cold-cache build and a plain New build of the same
// link (same arrivals, same convolution engine, same noise stream).
func TestCacheWarmMatchesColdByteIdentical(t *testing.T) {
	cfg := cacheCfg()
	x := testBurst(20000, 9)

	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc := NewCache()
	cold, err := cc.Channel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cc.Channel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := cc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after cold+warm = %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	yPlain := plain.Transmit(x)
	yCold := cold.Transmit(x)
	yWarm := warm.Transmit(x)
	if len(yWarm) != len(yCold) || len(yWarm) != len(yPlain) {
		t.Fatalf("output lengths differ: plain %d cold %d warm %d",
			len(yPlain), len(yCold), len(yWarm))
	}
	for i := range yWarm {
		if yWarm[i] != yCold[i] || yWarm[i] != yPlain[i] {
			t.Fatalf("sample %d: plain %g cold %g warm %g — not byte-identical",
				i, yPlain[i], yCold[i], yWarm[i])
		}
	}
	if warm.PathGain() != plain.PathGain() || warm.ResonanceGain() != plain.ResonanceGain() {
		t.Error("warm channel derived gains differ from plain build")
	}
}

// TestCacheMissesOnGeometryChange: mutating the structure's geometry or the
// link parameters must change the value-derived key, so the stale entry is
// never reused.
func TestCacheMissesOnGeometryChange(t *testing.T) {
	cc := NewCache()
	base := cacheCfg()
	if _, err := cc.Channel(base); err != nil {
		t.Fatal(err)
	}

	moved := base
	moved.Destination.X += 0.5
	chMoved, err := cc.Channel(moved)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(moved)
	if err != nil {
		t.Fatal(err)
	}
	if chMoved.PathGain() != want.PathGain() {
		t.Errorf("moved-destination channel path gain %g, want fresh build's %g",
			chMoved.PathGain(), want.PathGain())
	}

	// In-place structure mutation: the snapshot key must miss.
	thick := base
	thick.Structure = geometry.CommonWall()
	if _, err := cc.Channel(thick); err != nil {
		t.Fatal(err)
	}
	before := cc.Stats()
	thick.Structure.Thickness *= 2
	chThick, err := cc.Channel(thick)
	if err != nil {
		t.Fatal(err)
	}
	after := cc.Stats()
	if after.Misses != before.Misses+1 {
		t.Fatalf("thickness mutation hit the cache (stats %+v → %+v)", before, after)
	}
	fresh, err := New(thick)
	if err != nil {
		t.Fatal(err)
	}
	if chThick.PathGain() != fresh.PathGain() {
		t.Error("mutated-geometry channel does not match a fresh build")
	}
}

// TestCacheScattererInvalidation is the stale-cache test: AddScatterers on
// a cache-backed channel must (a) leave sibling channels sharing the entry
// byte-identical to a clean build, and (b) leave the entry itself clean,
// so the next lookup hits it and matches a clean New. If the copy-on-write
// were dropped, this test fails.
func TestCacheScattererInvalidation(t *testing.T) {
	cfg := cacheCfg()
	x := testBurst(8000, 4)
	cc := NewCache()
	a, err := cc.Channel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.Channel(cfg) // sibling sharing the same entry
	if err != nil {
		t.Fatal(err)
	}
	clean, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	objs := []Scatterer{{Kind: Rebar, Position: geometry.Vec3{X: 0.8, Y: 10.02, Z: 0.05}, Size: 0.025}}
	withScatter, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withScatter.AddScatterers(objs)
	a.AddScatterers(objs)

	// (a) The mutated channel behaves like a fresh build with scatterers...
	ya, yw := a.Transmit(x), withScatter.Transmit(x)
	for i := range ya {
		if ya[i] != yw[i] {
			t.Fatalf("scattered channel sample %d: %g vs fresh %g", i, ya[i], yw[i])
		}
	}
	// ...while the sibling still matches the clean response exactly.
	yb, yc := b.Transmit(x), clean.Transmit(x)
	for i := range yb {
		if yb[i] != yc[i] {
			t.Fatalf("sibling was polluted by AddScatterers: sample %d %g vs clean %g",
				i, yb[i], yc[i])
		}
	}
	if len(a.Arrivals()) == len(b.Arrivals()) {
		t.Fatal("AddScatterers added no arrivals; stale-cache test is vacuous")
	}
	// Transmit runs on the convolver, which AddScatterers replaces; the
	// shared arrival list must stay clean too (it is sorted in place).
	if !reflect.DeepEqual(b.Arrivals(), clean.Arrivals()) {
		t.Fatal("sibling arrival list was reordered by AddScatterers")
	}

	// (b) The entry survives with the clean response: the next lookup is
	// a hit and transmits exactly like a clean New.
	before := cc.Stats()
	if before.Entries != 1 {
		t.Fatalf("entry did not survive AddScatterers: %+v", before)
	}
	d, err := cc.Channel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := cc.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("lookup after AddScatterers was not a hit: %+v → %+v", before, after)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Arrivals(), fresh.Arrivals()) {
		t.Fatal("cached arrival list was polluted by AddScatterers")
	}
	yd, yf := d.Transmit(x), fresh.Transmit(x)
	for i := range yd {
		if yd[i] != yf[i] {
			t.Fatalf("entry was polluted by AddScatterers: sample %d %g vs clean %g", i, yd[i], yf[i])
		}
	}
}

// TestCacheKeyCoversEveryFloatField is the cache's staleness guard: the key
// is value-derived, so editing any exported float64 field of a cached
// link's structure, material or prism in place must never let a lookup
// serve the pre-edit response. For every such field, the cache-served
// channel must match a fresh New of the edited config in path gain and
// arrival count. A field the channel reads but the key leaves out fails
// here (ResonanceQ did: it scales the resonance gain).
func TestCacheKeyCoversEveryFloatField(t *testing.T) {
	targets := map[string]func(*Config) reflect.Value{
		"Structure": func(c *Config) reflect.Value { return reflect.ValueOf(c.Structure).Elem() },
		"Material":  func(c *Config) reflect.Value { return reflect.ValueOf(c.Structure.Material).Elem() },
		"Prism":     func(c *Config) reflect.Value { return reflect.ValueOf(c.Prism).Elem() },
	}
	edited, moved := 0, 0
	probe := cacheCfg()
	probe.Prism = material.PLA()
	for target, elem := range targets {
		typ := elem(&probe).Type()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() || f.Type.Kind() != reflect.Float64 {
				continue
			}
			cfg := cacheCfg()
			cfg.Prism = material.PLA()
			cc := NewCache()
			before, err := cc.Channel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			v := elem(&cfg).Field(i)
			if v.Float() == 0 {
				v.SetFloat(0.5)
			} else {
				v.SetFloat(v.Float() * 1.25)
			}
			edited++
			got, gotErr := cc.Channel(cfg)
			want, wantErr := New(cfg)
			name := target + "." + f.Name
			if (gotErr == nil) != (wantErr == nil) {
				t.Errorf("%s: cache error %v, fresh error %v", name, gotErr, wantErr)
				continue
			}
			if wantErr != nil {
				continue
			}
			if got.PathGain() != want.PathGain() || len(got.Arrivals()) != len(want.Arrivals()) {
				t.Errorf("%s edited in place: cache serves gain %g with %d arrivals, fresh New gives %g with %d",
					name, got.PathGain(), len(got.Arrivals()), want.PathGain(), len(want.Arrivals()))
			}
			if want.PathGain() != before.PathGain() {
				moved++
			}
		}
	}
	if edited == 0 || moved == 0 {
		t.Fatalf("edited %d fields, %d moved the path gain; the guard is vacuous", edited, moved)
	}
}

// TestCacheConcurrentRounds exercises a shared cache (and the shared
// convolver inside one entry) from concurrent goroutines — meaningful
// under -race. Every goroutine must see exactly the clean response.
func TestCacheConcurrentRounds(t *testing.T) {
	cfg := cacheCfg()
	x := testBurst(12000, 5)
	clean, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Transmit(x)
	cc := NewCache()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				ch, err := cc.Channel(cfg)
				if err != nil {
					errs <- err.Error()
					return
				}
				got := ch.Transmit(x)
				for i := range got {
					if got[i] != want[i] {
						errs <- "cached transmit diverged from clean build"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := cc.Stats()
	if st.Hits+st.Misses != workers*3 || st.Entries != 1 {
		t.Fatalf("stats %+v, want %d lookups over 1 entry", st, workers*3)
	}
}

// TestCacheSeedIndependence: the key must exclude per-channel state (seed,
// noise floor, leakage) so differently seeded channels share one entry but
// draw independent noise.
func TestCacheSeedIndependence(t *testing.T) {
	cc := NewCache()
	cfgA := cacheCfg()
	cfgA.NoiseFloor = 1e-3
	cfgB := cfgA
	cfgB.Seed = 99
	a, err := cc.Channel(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cc.Channel(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("seed change must not change the key: %+v", st)
	}
	x := testBurst(4000, 6)
	ya, yb := a.Transmit(x), b.Transmit(x)
	same := true
	for i := range ya {
		if math.Abs(ya[i]-yb[i]) > 1e-15 {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise — noise source is shared")
	}
}

// TestCacheDefaultPrismMatchesExplicitPLA pins the shared default prism: a
// config that leaves Prism nil must key, hit and transmit exactly like one
// that passes an explicit material.PLA(), and every such link must share
// one default prism rather than build its own.
func TestCacheDefaultPrismMatchesExplicitPLA(t *testing.T) {
	implicit := cacheCfg()
	explicit := cacheCfg()
	explicit.Prism = material.PLA()
	if normalize(implicit).Prism != normalize(cacheCfg()).Prism {
		t.Fatal("each nil-Prism link builds its own default prism; want one shared value")
	}
	requireSameLink(t, implicit, explicit)
}

// TestCacheDefaultCarrierMatchesOperatingPoint pins New's default carrier
// to the operating point: a link built without a CarrierFrequency and one
// built at physics.CarrierHz are the same link.
func TestCacheDefaultCarrierMatchesOperatingPoint(t *testing.T) {
	implicit := cacheCfg()
	explicit := cacheCfg()
	explicit.CarrierFrequency = physics.CarrierHz
	requireSameLink(t, implicit, explicit)
}

// requireSameLink requires a config that leaves a field to New's default
// and one that sets the default explicitly to be one link: one cache key
// (the second lookup hits the first's entry), and bit-identical path gain
// and transmit output, cached or built plainly.
func requireSameLink(t *testing.T, implicit, explicit Config) {
	t.Helper()
	if keyOf(normalize(implicit)) != keyOf(normalize(explicit)) {
		t.Fatal("defaulted config keys differently from the explicit default")
	}
	cc := NewCache()
	viaDefault, err := cc.Channel(implicit)
	if err != nil {
		t.Fatal(err)
	}
	viaExplicit, err := cc.Channel(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after defaulted then explicit config = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	plainDefault, err := New(implicit)
	if err != nil {
		t.Fatal(err)
	}
	plainExplicit, err := New(explicit)
	if err != nil {
		t.Fatal(err)
	}
	x := testBurst(20000, 9)
	want := plainExplicit.Transmit(x)
	for name, c := range map[string]*Channel{"cached default": viaDefault, "cached explicit": viaExplicit, "plain default": plainDefault} {
		if math.Float64bits(c.PathGain()) != math.Float64bits(plainExplicit.PathGain()) {
			t.Fatalf("%s: path gain %v, want %v", name, c.PathGain(), plainExplicit.PathGain())
		}
		got := c.Transmit(x)
		if len(got) != len(want) {
			t.Fatalf("%s: %d samples, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: sample %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}
