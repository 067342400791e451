package main

// The -json bench mode: micro-benchmarks over the stack's hot paths,
// measured at GOMAXPROCS=1 and at NumCPU, emitted as machine-readable JSON
// so CI can pin performance the way the golden files pin behaviour. The
// committed BENCH_8.json at the repository root is the reference;
// verify.sh re-runs the suite and fails the gate when the channel
// transmit, the uplink round decode, the fleet survey or the cold/warm
// link-cache decode pair regresses more than the tolerance against the
// matching-GOMAXPROCS baseline run. The cold/warm pair additionally gates
// the cache itself: a warm lookup that is not at least 2× faster than the
// cold build means the per-link channel cache stopped doing its job.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/fleet"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/phy"
	"ecocapsule/internal/units"
)

// benchEntry is one benchmark's result.
type benchEntry struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Iters   int     `json:"iters"`
}

// benchRun is one GOMAXPROCS setting's worth of measurements.
type benchRun struct {
	GoMaxProcs int          `json:"gomaxprocs"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// benchReport is the BENCH_8.json document: the same suite at
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
)

// gatedBenches are compared against the committed baseline; any of them
// regressing fails the gate, not just the transmit.
var gatedBenches = []string{benchTransmit, benchDecode, benchSurvey, benchRoundCold, benchRoundWarm}

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

// runBenchSuite measures the three hot paths at the current GOMAXPROCS.
func runBenchSuite() (benchRun, error) {
	rep := benchRun{GoMaxProcs: runtime.GOMAXPROCS(0)}

	// Hot path 1: 10 ms of carrier through the multipath wall channel —
	// the kernel under every acoustic exchange (FFT overlap-add engine).
	ch, err := channel.New(channel.Config{
		Structure:   geometry.CommonWall(),
		Source:      geometry.Vec3{X: 0.1, Y: 10, Z: 0},
		Destination: geometry.Vec3{X: 2.0, Y: 10, Z: 0.1},
		PrismAngle:  units.Deg2Rad(60),
		Seed:        5,
	})
	if err != nil {
		return rep, fmt.Errorf("bench channel: %w", err)
	}
	const fs = units.MHz
	x := make([]float64, int(10*units.MS*fs))
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 230 * units.KHz * float64(i) / fs)
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
		carrier[i] = math.Sin(2 * math.Pi * 230 * units.KHz * float64(i) / fs)
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
		PrismAngle:  units.Deg2Rad(60),
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

	return rep, nil
}

// nsPerOp finds a benchmark in a run (-1 when absent).
func (r benchRun) nsPerOp(name string) float64 {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b.NsPerOp
		}
	}
	return -1
}

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
// has more cores, again at NumCPU, restoring the caller's setting.
func runBenchMatrix() (benchReport, error) {
	var rep benchReport
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	procsSettings := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procsSettings = append(procsSettings, n)
	}
	for _, procs := range procsSettings {
		runtime.GOMAXPROCS(procs)
		run, err := runBenchSuite()
		if err != nil {
			return rep, err
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
}

// gateAgainst compares every gated benchmark of every run against the
// baseline run measured at the same GOMAXPROCS (runs with no matching
// baseline — a different host core count — are reported and skipped).
// Returns the number of regressions.
func gateAgainst(rep, base benchReport) int {
	failures := 0
	for _, run := range rep.Runs {
		baseRun := base.runAt(run.GoMaxProcs)
		if baseRun == nil {
			fmt.Fprintf(os.Stderr, "ecobench: baseline has no gomaxprocs=%d run (different host?); skipping that comparison\n",
				run.GoMaxProcs)
			continue
		}
		for _, name := range gatedBenches {
			want, got := baseRun.nsPerOp(name), run.nsPerOp(name)
			if want <= 0 || got <= 0 {
				fmt.Fprintf(os.Stderr, "ecobench: baseline or run missing %s at gomaxprocs=%d\n", name, run.GoMaxProcs)
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

// benchMain runs the suite matrix, writes JSON to stdout and, when
// baselinePath names a committed report, enforces the regression gate on
// every gated benchmark. Returns the process exit code.
func benchMain(baselinePath string) int {
	rep, err := runBenchMatrix()
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
	if gateColdWarm(rep) > 0 {
		return 1
	}
	if baselinePath == "" {
		return 0
	}
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
		fmt.Fprintf(os.Stderr, "ecobench: baseline %s has no runs (pre-BENCH_6 schema?)\n", baselinePath)
		return 1
	}
	if gateAgainst(rep, base) > 0 {
		return 1
	}
	return 0
}
