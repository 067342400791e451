package main

import (
	"encoding/json"
	"os"
	"testing"
)

func report(procs int, entries ...benchEntry) benchReport {
	return benchReport{Runs: []benchRun{{GoMaxProcs: procs, Benchmarks: entries}}}
}

func entry(name string, ns float64) benchEntry { return benchEntry{Name: name, NsPerOp: ns} }

// built is a 10k entry carrying a build time; its survey time is fixed, so
// only the build times can move the sharding gate.
func built(name string, buildNs float64) benchEntry {
	return benchEntry{Name: name, NsPerOp: 1e8, BuildNs: buildNs}
}

func TestGates(t *testing.T) {
	base := report(1, entry(benchTransmit, 1e6), entry(benchDecode, 2e6))
	for _, tc := range []struct {
		name     string
		failures func() int
		want     int
	}{
		{"within tolerance", func() int {
			return gateAgainst(report(1, entry(benchTransmit, 1.1e6), entry(benchDecode, 2e6)), base)
		}, 0},
		{"exactly 1.20x passes", func() int {
			return gateAgainst(report(1, entry(benchTransmit, 1.2e6)), base)
		}, 0},
		{"1.21x fails", func() int {
			return gateAgainst(report(1, entry(benchTransmit, 1.21e6)), base)
		}, 1},
		{"every regressed entry counts", func() int {
			return gateAgainst(report(1, entry(benchTransmit, 1.21e6), entry(benchDecode, 3e6)), base)
		}, 2},
		{"entry absent from the baseline fails", func() int {
			return gateAgainst(report(1, entry(benchTransmit, 1e6), entry(smokeTier.name, 5e6)), base)
		}, 1},
		{"entry with no valid measurement fails", func() int {
			return gateAgainst(report(1, entry(benchTransmit, 0)), base)
		}, 1},
		{"gomaxprocs the baseline lacks is skipped", func() int {
			return gateAgainst(report(4, entry(benchTransmit, 9e9), entry(smokeTier.name, 5e6)), base)
		}, 0},
		{"warm 2x faster than cold passes", func() int {
			return gateColdWarm(report(1, entry(benchRoundCold, 10e6), entry(benchRoundWarm, 5e6)))
		}, 0},
		{"warm under 2x faster than cold fails", func() int {
			return gateColdWarm(report(1, entry(benchRoundCold, 10e6), entry(benchRoundWarm, 5.1e6)))
		}, 1},
		{"missing cold/warm pair fails", func() int {
			return gateColdWarm(report(1, entry(benchRoundCold, 10e6)))
		}, 1},
		{"flat build 3x the sharded 10k passes", func() int {
			return gateSharding(report(1, built(benchFleet10k, 1e9), built(benchFlat10k, 3e9)).Runs[0])
		}, 0},
		{"flat build under 3x the sharded 10k fails", func() int {
			return gateSharding(report(1, built(benchFleet10k, 1e9), built(benchFlat10k, 2.9e9)).Runs[0])
		}, 1},
		{"10k pair with no build time fails", func() int {
			return gateSharding(report(1, entry(benchFleet10k, 1e8), built(benchFlat10k, 3e9)).Runs[0])
		}, 1},
	} {
		if got := tc.failures(); got != tc.want {
			t.Errorf("%s: %d failures, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCommittedBaselineCoversSuite: every entry the suite can measure has a
// gomaxprocs=1 baseline, so a renamed benchmark fails here, not in CI.
func TestCommittedBaselineCoversSuite(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("BENCH.json: %v", err)
	}
	run := base.runAt(1)
	if run == nil {
		t.Fatal("BENCH.json has no gomaxprocs=1 run")
	}
	names := []string{benchTransmit, benchDecode, benchRoundCold, benchRoundWarm, benchSurvey, smokeTier.name, benchFlat10k}
	for _, tier := range fullTiers {
		names = append(names, tier.name)
	}
	for _, name := range names {
		if run.nsPerOp(name) <= 0 {
			t.Errorf("BENCH.json has no gomaxprocs=1 %s entry", name)
		}
	}
}
