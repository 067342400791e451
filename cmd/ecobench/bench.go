package main

// The -json bench mode: micro-benchmarks over the stack's hot paths and
// the city-fleet survey tiers, measured at GOMAXPROCS=1 and at NumCPU,
// emitted as machine-readable JSON so CI can pin performance the way the
// golden files pin behaviour. The committed BENCH.json at the repository
// root is the reference; verify.sh re-runs the suite and fails the gate
// when any entry regresses more than the tolerance against the baseline
// run at the same GOMAXPROCS. Two intra-run floors gate design decisions
// rather than speed: a warm link-cache decode must be at least 2× faster
// than the cold build of the same link, and (with -full) the sharded 10k
// fleet must build at least 3× faster than the flat registry.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/fleet"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/phy"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
)

// benchEntry is one benchmark's result.
type benchEntry struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// Iters is omitted for baseline entries whose source recorded none.
	Iters int `json:"iters,omitempty"`
	// BuildNs is the fleet's build + warm-up wall time, recorded on the two
	// 10k entries the sharding floor compares.
	BuildNs float64 `json:"build_ns,omitempty"`
}

// benchRun is one GOMAXPROCS setting's worth of measurements.
type benchRun struct {
	GoMaxProcs int          `json:"gomaxprocs"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// benchReport is the BENCH.json document: the same suite at
// GOMAXPROCS=1 (serial reference, stable across hosts) and at NumCPU
// (what the conc pool fan-out actually buys).
type benchReport struct {
	Runs []benchRun `json:"runs"`
}

// The bench names double as the baseline-comparison keys.
const (
	benchTransmit  = "channel_transmit_10ms"
	benchDecode    = "uplink_round_decode"
	benchSurvey    = "fleet_survey"
	benchRoundCold = "uplink_round_cold"
	benchRoundWarm = "uplink_round_warm"
	benchFleet10k  = "fleet_survey_10k"
	benchFlat10k   = "fleet_survey_10k_flat"
)

// fleetTier is one city-fleet survey entry: total capsules split into equal
// building segments (16-bit capsule handles cap one fleet at 60k), each
// built with shards spatial shards.
type fleetTier struct {
	name                       string
	capsules, segments, shards int
}

// smokeTier runs in every suite; fullTiers join the GOMAXPROCS=1 run with
// -full (minutes: the 10k flat comparator alone is O(capsules × stations)
// to build).
var (
	smokeTier = fleetTier{"fleet_survey_1k", 1000, 1, 8}
	fullTiers = []fleetTier{
		{benchFleet10k, 10000, 1, 16},
		{"fleet_survey_100k", 100000, 2, 32},
	}
)

// shardingFloor is the minimum flat-over-sharded build + warm-up time
// ratio at 10k capsules. A read walks only the stations that reach its
// capsule, so the two shapes survey at similar cost; what the partition
// still saves is construction, since the flat fleet deploys every capsule
// into every station (a channel per pair) where a sharded capsule deploys
// only into the stations covering its cell. Anything under this floor
// means the partitioning stopped paying for itself.
const shardingFloor = 3.0

// fleetChargeDuration is the survey charge window (s), matching the
// demo-fleet survey entry.
const fleetChargeDuration = 0.4

// warmSpeedup is the minimum cold/warm ratio the link-cache pair must
// show: a warm lookup re-uses the image-source expansion and the
// frequency-domain convolver, so it has to be at least this much faster
// than a cold build of the same link.
const warmSpeedup = 2.0

// regressionTolerance is how much slower than the committed baseline a
// gated benchmark may measure before the gate fails; the slack absorbs
// host-to-host jitter without letting a real regression (the crossover
// picking the wrong convolution path, a survey fan-out serialising) slide
// through.
const regressionTolerance = 1.20

func runBench(result *testing.BenchmarkResult, fn func(b *testing.B)) benchEntry {
	*result = testing.Benchmark(fn)
	return benchEntry{NsPerOp: float64(result.NsPerOp()), Iters: result.N}
}

// runBenchSuite measures the hot paths and the 1k fleet tier at the
// current GOMAXPROCS; full adds the 10k (sharded and flat) and 100k tiers.
func runBenchSuite(full bool) (benchRun, error) {
	rep := benchRun{GoMaxProcs: runtime.GOMAXPROCS(0)}

	// Hot path 1: 10 ms of carrier through the multipath wall channel —
	// the kernel under every acoustic exchange (FFT overlap-add engine).
	ch, err := channel.New(channel.Config{
		Structure:   geometry.CommonWall(),
		Source:      geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		Destination: geometry.Vec3{X: 2.0, Y: 10, Z: 0.1},
		PrismAngle:  units.Deg2Rad(physics.PrismAngleDeg),
		Seed:        5,
	})
	if err != nil {
		return rep, fmt.Errorf("bench channel: %w", err)
	}
	const fs = units.MHz
	x := make([]float64, int(10*units.MS*fs))
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * physics.CarrierHz * float64(i) / fs)
	}
	var r testing.BenchmarkResult
	e := runBench(&r, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := ch.Transmit(x); len(out) < len(x) {
				b.Fatal("short transmit")
			}
		}
	})
	e.Name = benchTransmit
	rep.Benchmarks = append(rep.Benchmarks, e)

	// Hot path 2: one uplink frame round decode — modulate a pilot-framed
	// byte over the backscatter carrier, then sync + ML-demodulate it.
	btx := phy.NewBackscatterTX(fs)
	bits := phy.PrependPilot([]byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0})
	dur := float64(len(bits)*2)*btx.HalfSymbolDuration() + 2*units.MS
	carrier := make([]float64, int(dur*fs))
	for i := range carrier {
		carrier[i] = math.Sin(2 * math.Pi * physics.CarrierHz * float64(i) / fs)
	}
	bs, err := btx.Modulate(bits, carrier)
	if err != nil {
		return rep, fmt.Errorf("bench modulate: %w", err)
	}
	capture := ch.Transmit(bs)
	rx := phy.NewReaderRX(fs)
	if _, err := rx.DemodulateFrame(capture, len(bits)); err != nil {
		return rep, fmt.Errorf("bench decode sanity: %w", err)
	}
	e = runBench(&r, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rx.DemodulateFrame(capture, len(bits)); err != nil {
				b.Fatal(err)
			}
		}
	})
	e.Name = benchDecode
	rep.Benchmarks = append(rep.Benchmarks, e)

	// Hot paths 2a/2b: one round's reader-side work behind the per-link
	// channel cache. Cold pays the whole link bring-up a cacheless reader
	// repeats every round — the image-source expansion plus the
	// frequency-domain kernel spectra (Prime) of a survey-grade order-8
	// response — before decoding its slot; warm replays the same link from
	// one shared cache, whose entry already holds the arrivals and the
	// primed convolver, and goes straight to the slot decode. The gap is
	// exactly what the cache amortises for a reader polling a fixed fleet.
	linkCfg := channel.Config{
		Structure:   geometry.CommonWall(),
		Source:      geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		Destination: geometry.Vec3{X: 2.0, Y: 10, Z: 0.1},
		PrismAngle:  units.Deg2Rad(physics.PrismAngleDeg),
		Seed:        5,
		MaxOrder:    8,
	}
	round, err := channel.New(linkCfg)
	if err != nil {
		return rep, fmt.Errorf("bench round link: %w", err)
	}
	// The slot window: the frame plus a 16 ms guard, leakage summed in, as
	// the batched reader demodulator sees it (the reverb tail beyond the
	// slot belongs to the next slot's guard, not to this decode).
	y := round.Transmit(bs)
	slotLen := len(bs) + 16000
	if slotLen > len(y) {
		slotLen = len(y)
	}
	slot := make([]float64, slotLen)
	copy(slot, y[:slotLen])
	for i := 0; i < len(carrier) && i < slotLen; i++ {
		slot[i] += 0.4 * carrier[i]
	}
	if _, err := rx.DemodulateFrame(slot, len(bits)); err != nil {
		return rep, fmt.Errorf("bench round decode sanity: %w", err)
	}
	e = runBench(&r, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold, err := channel.NewCache().Channel(linkCfg)
			if err != nil {
				b.Fatal(err)
			}
			cold.Prime(len(bs))
			if _, err := rx.DemodulateFrame(slot, len(bits)); err != nil {
				b.Fatal(err)
			}
		}
	})
	e.Name = benchRoundCold
	rep.Benchmarks = append(rep.Benchmarks, e)

	cc := channel.NewCache()
	if warm, err := cc.Channel(linkCfg); err != nil {
		return rep, fmt.Errorf("bench cache warmup: %w", err)
	} else {
		warm.Prime(len(bs))
	}
	e = runBench(&r, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			warm, err := cc.Channel(linkCfg)
			if err != nil {
				b.Fatal(err)
			}
			warm.Prime(len(bs))
			if _, err := rx.DemodulateFrame(slot, len(bits)); err != nil {
				b.Fatal(err)
			}
		}
	})
	e.Name = benchRoundWarm
	rep.Benchmarks = append(rep.Benchmarks, e)

	// Hot path 3: the demo-fleet survey — charge, inventory-grade reads
	// and report over 3 stations × 12 capsules (per-station fan-out).
	f, _, err := fleet.NewDemoFleet(fleet.DemoSeed)
	if err != nil {
		return rep, fmt.Errorf("bench fleet: %w", err)
	}
	e = runBench(&r, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rep := f.Survey(0.4); rep.Reporting == 0 {
				b.Fatal("survey reported nothing")
			}
		}
	})
	e.Name = benchSurvey
	rep.Benchmarks = append(rep.Benchmarks, e)

	// City-fleet tiers: sharded registries surveyed end to end.
	tiers := []fleetTier{smokeTier}
	if full {
		tiers = append(tiers, fullTiers...)
	}
	for _, tier := range tiers {
		fleets, built, err := buildSegments(tier)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", tier.name, err)
		}
		e := measureSurvey(tier.name, tier.capsules, fleets)
		if tier.name != benchFleet10k {
			rep.Benchmarks = append(rep.Benchmarks, e)
			continue
		}
		e.BuildNs = float64(built)
		rep.Benchmarks = append(rep.Benchmarks, e)
		// The flat comparator: same wall, same capsules, one cell — the
		// pre-shard registry shape.
		fmt.Fprintf(os.Stderr, "ecobench: building the 10k flat comparator (O(capsules × stations) channels)...\n")
		t0 := time.Now()
		flat, err := fleet.NewCityFleetFlat(tier.capsules, 42)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", benchFlat10k, err)
		}
		if err := warmUp(flat); err != nil {
			return rep, fmt.Errorf("%s: %w", benchFlat10k, err)
		}
		built = time.Since(t0)
		fmt.Fprintf(os.Stderr, "ecobench: flat comparator built+warmed in %v\n", built.Round(time.Millisecond))
		e = measureSurvey(benchFlat10k, tier.capsules, []*fleet.Fleet{flat})
		e.BuildNs = float64(built)
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	return rep, nil
}

// warmUp installs the city environment and runs one survey, which pays the
// full charge ramp; steady state is what the bench pins.
func warmUp(f *fleet.Fleet) error {
	f.SetEnvironment(fleet.CityEnvironment)
	if rep := f.Survey(fleetChargeDuration); rep.Reporting != rep.Expected {
		return fmt.Errorf("warmup survey reported %d/%d capsules", rep.Reporting, rep.Expected)
	}
	return nil
}

// buildSegments constructs a tier's population as equal building segments,
// each warmed up, and returns their total build + warm-up time.
func buildSegments(tier fleetTier) ([]*fleet.Fleet, time.Duration, error) {
	per := tier.capsules / tier.segments
	fleets := make([]*fleet.Fleet, 0, tier.segments)
	var total time.Duration
	for s := 0; s < tier.segments; s++ {
		t0 := time.Now()
		f, err := fleet.NewCityFleet(per, tier.shards, int64(42+s))
		if err != nil {
			return nil, 0, fmt.Errorf("segment %d: %w", s, err)
		}
		if err := warmUp(f); err != nil {
			return nil, 0, fmt.Errorf("segment %d: %w", s, err)
		}
		built := time.Since(t0)
		total += built
		fmt.Fprintf(os.Stderr, "ecobench: %s segment %d: %d capsules, %d stations, %d shards, built+warmed in %v\n",
			tier.name, s, per, f.Stations(), f.Shards(), built.Round(time.Millisecond))
		fleets = append(fleets, f)
	}
	return fleets, total, nil
}

// measureSurvey times one full survey pass over every segment, which
// together hold capsules capsules, and logs the survey rate.
func measureSurvey(name string, capsules int, fleets []*fleet.Fleet) benchEntry {
	var r testing.BenchmarkResult
	e := runBench(&r, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range fleets {
				if rep := f.Survey(fleetChargeDuration); rep.Reporting == 0 {
					b.Fatal("survey reported nothing")
				}
			}
		}
	})
	e.Name = name
	if e.NsPerOp > 0 {
		fmt.Fprintf(os.Stderr, "ecobench: %s surveyed %.0f capsules/s\n", name, float64(capsules)/(e.NsPerOp/1e9))
	}
	return e
}

// find returns a benchmark's entry in a run (the zero entry when absent).
func (r benchRun) find(name string) benchEntry {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b
		}
	}
	return benchEntry{}
}

// nsPerOp finds a benchmark's time in a run (0 when absent).
func (r benchRun) nsPerOp(name string) float64 { return r.find(name).NsPerOp }

// runAt finds the run measured at a GOMAXPROCS setting, or nil.
func (rep benchReport) runAt(procs int) *benchRun {
	for i := range rep.Runs {
		if rep.Runs[i].GoMaxProcs == procs {
			return &rep.Runs[i]
		}
	}
	return nil
}

// runBenchMatrix measures the suite at GOMAXPROCS=1 and, when the host
// has more cores, again at NumCPU, restoring the caller's setting. The
// full fleet tiers run at GOMAXPROCS=1 only, the setting the baseline
// pins.
func runBenchMatrix(full bool) (benchReport, error) {
	var rep benchReport
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	procsSettings := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procsSettings = append(procsSettings, n)
	}
	for _, procs := range procsSettings {
		runtime.GOMAXPROCS(procs)
		run, err := runBenchSuite(full && procs == 1)
		if err != nil {
			return rep, err
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
}

// gateAgainst compares every entry of every run against the baseline run
// measured at the same GOMAXPROCS (runs with no matching baseline — a
// different host core count — are reported and skipped; an entry the
// matching baseline run lacks fails). Returns the number of failures.
func gateAgainst(rep, base benchReport) int {
	failures := 0
	for _, run := range rep.Runs {
		baseRun := base.runAt(run.GoMaxProcs)
		if baseRun == nil {
			fmt.Fprintf(os.Stderr, "ecobench: baseline has no gomaxprocs=%d run (different host?); skipping that comparison\n",
				run.GoMaxProcs)
			continue
		}
		for _, e := range run.Benchmarks {
			name, got := e.Name, e.NsPerOp
			want := baseRun.nsPerOp(name)
			if want <= 0 {
				fmt.Fprintf(os.Stderr, "ecobench: baseline has no %s at gomaxprocs=%d\n", name, run.GoMaxProcs)
				failures++
				continue
			}
			if got <= 0 {
				// A benchmark body that called b.Fatal yields a zero result.
				fmt.Fprintf(os.Stderr, "ecobench: %s (gomaxprocs=%d) has no valid measurement (the benchmark failed)\n",
					name, run.GoMaxProcs)
				failures++
				continue
			}
			if got > want*regressionTolerance {
				fmt.Fprintf(os.Stderr,
					"ecobench: %s (gomaxprocs=%d) regressed: %.0f ns/op vs baseline %.0f ns/op (>%.0f%% over)\n",
					name, run.GoMaxProcs, got, want, (regressionTolerance-1)*100)
				failures++
				continue
			}
			fmt.Fprintf(os.Stderr, "ecobench: %s (gomaxprocs=%d) %.0f ns/op within %.0f%% of baseline %.0f ns/op\n",
				name, run.GoMaxProcs, got, (regressionTolerance-1)*100, want)
		}
	}
	return failures
}

// gateColdWarm enforces the intra-run cache contract: in every run, the
// warm cached decode must be at least warmSpeedup× faster than the cold
// build-and-decode of the same link. Returns the number of violations.
func gateColdWarm(rep benchReport) int {
	failures := 0
	for _, run := range rep.Runs {
		cold, warm := run.nsPerOp(benchRoundCold), run.nsPerOp(benchRoundWarm)
		if cold <= 0 || warm <= 0 {
			fmt.Fprintf(os.Stderr, "ecobench: run at gomaxprocs=%d is missing the cold/warm pair\n", run.GoMaxProcs)
			failures++
			continue
		}
		if warm*warmSpeedup > cold {
			fmt.Fprintf(os.Stderr,
				"ecobench: link cache not earning its keep at gomaxprocs=%d: warm %.0f ns/op vs cold %.0f ns/op (< %.1f× speedup)\n",
				run.GoMaxProcs, warm, cold, warmSpeedup)
			failures++
			continue
		}
		fmt.Fprintf(os.Stderr, "ecobench: warm decode %.1f× faster than cold at gomaxprocs=%d\n",
			cold/warm, run.GoMaxProcs)
	}
	return failures
}

// gateSharding enforces the sharding floor on the run that measured the
// -full tiers: the flat 10k fleet must take at least shardingFloor× as long
// to build and warm up as the sharded one. The survey ratio is logged, not
// gated. Returns the number of violations.
func gateSharding(run benchRun) int {
	sharded, flat := run.find(benchFleet10k), run.find(benchFlat10k)
	if sharded.BuildNs <= 0 || flat.BuildNs <= 0 {
		fmt.Fprintf(os.Stderr, "ecobench: gomaxprocs=1 run is missing the %s/%s build times\n", benchFleet10k, benchFlat10k)
		return 1
	}
	if sharded.NsPerOp > 0 {
		fmt.Fprintf(os.Stderr, "ecobench: flat 10k survey %.2fx the sharded one (not gated)\n", flat.NsPerOp/sharded.NsPerOp)
	}
	ratio := flat.BuildNs / sharded.BuildNs
	if ratio < shardingFloor {
		fmt.Fprintf(os.Stderr, "ecobench: flat 10k build only %.2fx the sharded one (floor %.1fx); the spatial registry stopped paying for itself\n",
			ratio, shardingFloor)
		return 1
	}
	fmt.Fprintf(os.Stderr, "ecobench: flat 10k build %.2fx the sharded one (floor %.1fx)\n", ratio, shardingFloor)
	return 0
}

// benchMain runs the suite matrix, writes JSON to stdout, enforces the
// intra-run floors and, when baselinePath names a committed report, the
// regression gate on every entry. Every gate runs and reports before the
// exit code is decided. Returns the process exit code.
func benchMain(baselinePath string, full bool) int {
	rep, err := runBenchMatrix(full)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecobench: %v\n", err)
		return 1
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecobench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	failures := gateColdWarm(rep)
	if full {
		// Runs[0] is the GOMAXPROCS=1 run, the one that measured the full
		// tiers.
		failures += gateSharding(rep.Runs[0])
	}
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ecobench: baseline: %v\n", err)
			return 1
		}
		var base benchReport
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "ecobench: baseline %s: %v\n", baselinePath, err)
			return 1
		}
		if len(base.Runs) == 0 {
			fmt.Fprintf(os.Stderr, "ecobench: baseline %s has no runs\n", baselinePath)
			return 1
		}
		failures += gateAgainst(rep, base)
	}
	if failures > 0 {
		return 1
	}
	return 0
}
