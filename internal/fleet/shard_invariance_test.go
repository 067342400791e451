package fleet

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecocapsule/internal/deploy"
	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/telemetry"
)

// shardedSurveyFleet builds a sharded fleet over fresh capsules (node state
// is mutable, so every shard count gets its own population with identical
// configs and seeds).
func shardedSurveyFleet(t *testing.T, shards int) *Fleet {
	t.Helper()
	wall := geometry.CommonWall()
	var capsules []*node.Node
	var positions []geometry.Vec3
	for i := 0; i < 24; i++ {
		pos := geometry.Vec3{X: 0.5 + float64(i)*0.8, Y: 10, Z: 0.1}
		positions = append(positions, pos)
		capsules = append(capsules, node.New(node.Config{
			Handle:   uint16(0x300 + i),
			Position: pos,
			Seed:     int64(i),
		}))
	}
	plan, err := deploy.Cover(wall, positions, 200)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewSharded(wall, plan, capsules, 7, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestShardCountInvariance is the determinism contract as a table: in the
// plain and traced modes, at every shard count and at GOMAXPROCS 1 and
// NumCPU, a charge → inventory → survey pass renders the report and the
// span tree byte-identical to the 1-shard run at GOMAXPROCS=1. Capsule
// ownership keys off the geometry-derived cell grid and span IDs key off
// capsule handles, so neither the shard count nor the pool's schedule can
// show in the output.
func TestShardCountInvariance(t *testing.T) {
	checkShardInvariance(t, []invarianceMode{
		{"plain", false, false},
		{"tracer", false, true},
	})
}

// TestShardCountInvarianceUnderInjector extends the property to the fault
// path: fault draws key off capsule handles, never the schedule, so every
// shard count and GOMAXPROCS burns the identical draws — dead station,
// frame losses, corruption and brownouts included — with and without a
// tracer installed.
func TestShardCountInvarianceUnderInjector(t *testing.T) {
	checkShardInvariance(t, []invarianceMode{
		{"injector", true, false},
		{"injector+tracer", true, true},
	})
}

type invarianceMode struct {
	name           string
	faults, traced bool
}

// checkShardInvariance runs each mode at every shard count and at
// GOMAXPROCS 1 and NumCPU, and compares report and span tree with the
// 1-shard run at GOMAXPROCS=1.
func checkShardInvariance(t *testing.T, modes []invarianceMode) {
	t.Helper()
	run := func(t *testing.T, faults, traced bool, shards, procs int) (text, tree string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f := shardedSurveyFleet(t, shards)
		if shards > 1 && f.Shards() < 2 {
			t.Fatalf("shards=%d built only %d shards", shards, f.Shards())
		}
		f.SetEnvironment(surveyEnv)
		if faults {
			f.ApplyInjector(faultinject.MustNew(faultinject.Plan{
				Seed:             11,
				FrameLossProb:    0.15,
				FrameCorruptProb: 0.05,
				BrownoutProb:     0.01,
				DeadStations:     []int{1},
			}))
		}
		tr := telemetry.NewTracer(5)
		if traced {
			f.SetTracer(tr)
		}
		f.Charge(0.4)
		f.Inventory(4)
		return f.Survey(0.4).Text(), tr.Tree()
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			wantText, wantTree := run(t, m.faults, m.traced, 1, 1)
			if m.faults && !strings.Contains(wantText, "DEGRADED") {
				t.Fatalf("injector mode must degrade the survey:\n%s", wantText)
			}
			if m.traced != (wantTree != "") {
				t.Fatalf("traced=%v but tree is %q", m.traced, wantTree)
			}
			for _, k := range []int{1, 3, 7, 1 << 10} { // over-asking clamps to the cell count
				for _, procs := range []int{1, runtime.NumCPU()} {
					text, tree := run(t, m.faults, m.traced, k, procs)
					if text != wantText {
						t.Errorf("shards=%d procs=%d report diverged:\n--- got\n%s--- want\n%s", k, procs, text, wantText)
					}
					if tree != wantTree {
						t.Errorf("shards=%d procs=%d span tree diverged:\n--- got\n%s--- want\n%s", k, procs, tree, wantTree)
					}
				}
			}
		})
	}
}

// TestSurveyFansOutUnderInjectorAndTracer pins that faults and tracing do
// not serialise the survey: on a multi-shard fleet at GOMAXPROCS >= 2, more
// than one environment-sampler call (one per delivery to a capsule) is in
// flight at once. Each call waits at a barrier for an overlapping call; the
// first timeout releases the barrier so a serial schedule fails, not hangs.
func TestSurveyFansOutUnderInjectorAndTracer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := shardedSurveyFleet(t, 3)
	f.ApplyInjector(faultinject.MustNew(faultinject.Plan{Seed: 11, FrameLossProb: 0.05}))
	f.SetTracer(telemetry.NewTracer(5))
	var inFlight atomic.Int32
	var overlapped atomic.Bool
	release := make(chan struct{})
	var once sync.Once
	f.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		if inFlight.Add(1) >= 2 {
			overlapped.Store(true)
			once.Do(func() { close(release) })
		}
		select {
		case <-release:
		case <-time.After(2 * time.Second):
			once.Do(func() { close(release) })
		}
		inFlight.Add(-1)
		return surveyEnv(pos)
	})
	f.Survey(0.4)
	if !overlapped.Load() {
		t.Error("no two environment-sampler calls overlapped: the faulted, traced survey ran serially")
	}
}

// TestTracedInventoryDeterministic: a multi-shard inventory's stations open
// their inventory root spans concurrently; keyed span IDs and key-ordered
// rendering make the tree the same on every run.
func TestTracedInventoryDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		f := shardedSurveyFleet(t, 3)
		f.SetEnvironment(surveyEnv)
		tr := telemetry.NewTracer(5)
		f.SetTracer(tr)
		f.Charge(0.4)
		f.Inventory(4)
		tree := tr.Tree()
		if i == 0 {
			roots := 0
			for _, line := range strings.Split(tree, "\n") {
				if strings.HasPrefix(line, "inventory [") {
					roots++
				}
			}
			if roots < 2 {
				t.Fatalf("want inventory roots from several stations, got:\n%s", tree)
			}
			first = tree
			continue
		}
		if tree != first {
			t.Fatalf("run %d rendered a different tree:\n--- got\n%s--- first\n%s", i, tree, first)
		}
	}
}

// TestShardedSurveyConsistentUnderChurn runs the torn-snapshot invariants
// against a multi-shard fleet while stations die and revive across shard
// boundaries — the cross-shard analogue of the flat churn test, and the
// -race exercise for the route/shard lock ordering.
func TestShardedSurveyConsistentUnderChurn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := shardedSurveyFleet(t, 3)
	f.SetEnvironment(surveyEnv)
	f.Charge(0.4)

	var stop atomic.Bool
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; !stop.Load(); i++ {
			victim := i % f.Stations()
			f.KillStation(victim)
			f.ReviveStation(victim)
		}
	}()
	defer func() {
		stop.Store(true)
		<-churnDone
	}()
	for i := 0; i < 60; i++ {
		rep := f.Survey(0.001)
		if rep.AliveStations+len(rep.DeadStations) != rep.Stations {
			t.Fatalf("survey %d: torn snapshot: %d alive + %d dead != %d stations",
				i, rep.AliveStations, len(rep.DeadStations), rep.Stations)
		}
		dead := make(map[int]bool, len(rep.DeadStations))
		for _, s := range rep.DeadStations {
			dead[s] = true
		}
		orphanRows := 0
		for _, row := range rep.Rows {
			if row.Status == "orphan" {
				orphanRows++
			}
			if row.Status == "ok" && dead[row.Station] {
				t.Fatalf("survey %d: row %#04x served by station %d that the same report lists dead",
					i, row.Handle, row.Station)
			}
		}
		if orphanRows != len(rep.Orphans) {
			t.Fatalf("survey %d: %d orphan rows vs %d listed orphans", i, orphanRows, len(rep.Orphans))
		}
	}
}
