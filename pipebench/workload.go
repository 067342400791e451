package main

import (
	"fmt"
	"time"

	"ecocapsule/internal/shmwire"
	"ecocapsule/internal/telemetry"
)

// cycle is the system's output for one op: what the benchmark broadcasts, and
// how many readings the op asked for.
type cycle struct {
	frames    []shmwire.Telemetry
	status    shmwire.Status
	requested int
}

// workload is one system under test. build and warm run once per set-up;
// run executes the system's part of one op; check validates the outputs of
// the last run, outside the op's timing.
type workload interface {
	// build constructs the system (fleet or reader) from the seed.
	build() error
	// warm runs the first survey or round: charge ramp and cache fill.
	warm() error
	// run executes one op's reads, recording a span per layer call.
	run(op int, tr *tracer, root int) cycle
	// check validates the outputs of the last run.
	check() error
	// text renders the last run's report deterministically.
	text() string
	// counters returns the workload's cumulative per-layer counts.
	counters() map[string]float64
	// setTraced switches the per-call timers of installed hooks on or off.
	setTraced(on bool)
	// probes times the standalone layer calls of the traced run; it may
	// disturb the system's state, so it runs after the timed ops.
	probes() (map[string]float64, error)
	// cacheStats reports channel-cache entries and hit ratio.
	cacheStats() (entries, hitRatio float64)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"city_survey", "faulted_survey", "acoustic_round"}

// newWorkload returns the named workload at its benchmark size.
func newWorkload(name string, seed int64, traced bool) (workload, error) {
	switch name {
	case "city_survey":
		return &fleetWorkload{capsules: cityCapsules, shards: cityShards, seed: seed}, nil
	case "faulted_survey":
		return &fleetWorkload{capsules: faultedCapsules, shards: cityShards, seed: seed,
			faulted: true, traced: traced}, nil
	case "acoustic_round":
		return &acousticWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// simTime is the deterministic timestamp of an op's frames: one survey per
// simulated hour.
func simTime(op int) time.Time {
	return time.Unix(1_600_000_000+int64(op)*3600, 0).UTC()
}

// registrySeries counts the series in the default telemetry registry.
func registrySeries() int {
	n := 0
	for _, f := range telemetry.Default().Snapshot() {
		n += len(f.Series)
	}
	return n
}

// statusEqual compares a sent Status with a received one.
func statusEqual(a, b shmwire.Status) bool {
	if !a.Timestamp.Equal(b.Timestamp) || a.Expected != b.Expected || a.Reporting != b.Reporting ||
		a.Degraded != b.Degraded || a.Truncated != b.Truncated || len(a.MissingNodes) != len(b.MissingNodes) {
		return false
	}
	for i := range a.MissingNodes {
		if a.MissingNodes[i] != b.MissingNodes[i] {
			return false
		}
	}
	return true
}
