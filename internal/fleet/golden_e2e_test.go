package fleet

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/node"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenFleet is the pinned end-to-end scenario, shared with the tools as
// the demo deployment (see NewDemoFleet).
func goldenFleet(t *testing.T) (*Fleet, []*node.Node) {
	t.Helper()
	f, capsules, err := NewDemoFleet(DemoSeed)
	if err != nil {
		t.Fatal(err)
	}
	return f, capsules
}

// TestGoldenSurveyTrace pins the full survey output — 3 stations, 12
// capsules, 5 % injected frame loss, fixed seed — to a golden file.
// Regenerate with: go test ./internal/fleet -run TestGoldenSurveyTrace -update
func TestGoldenSurveyTrace(t *testing.T) {
	f, _ := goldenFleet(t)
	f.ApplyInjector(faultinject.MustNew(faultinject.Plan{
		Seed:          7, // this seed drops four frames in 54 draws — the trace shows the retries winning
		FrameLossProb: 0.05,
	}))
	got := f.Survey(0.4).Text()

	golden := filepath.Join("testdata", "golden_survey.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("survey diverged from golden file\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestE2EStationLossWithCorruption is the acceptance scenario: one station
// dead, 10 % frame corruption. The run must complete without error,
// re-route every capsule off the dead station, emit a degraded report, and
// reproduce byte-identical output for the same seed.
func TestE2EStationLossWithCorruption(t *testing.T) {
	const killed = 1
	run := func() (SHMReport, *Fleet) {
		f, _ := goldenFleet(t)
		f.ApplyInjector(faultinject.MustNew(faultinject.Plan{
			Seed:             0xBAD,
			FrameCorruptProb: 0.10,
			DeadStations:     []int{killed},
		}))
		return f.Survey(0.4), f
	}
	rep, f := run()

	if !rep.Degraded {
		t.Fatalf("report must be degraded:\n%s", rep.Text())
	}
	if len(rep.DeadStations) != 1 || rep.DeadStations[0] != killed {
		t.Errorf("dead stations %v, want [%d]", rep.DeadStations, killed)
	}
	// Re-routing: with overlapping footprints, no capsule may be orphaned
	// and none may still point at the dead station.
	if len(rep.Orphans) != 0 {
		t.Errorf("orphans %v — overlap design guarantees a fallback server", rep.Orphans)
	}
	for _, row := range rep.Rows {
		if row.Station == killed {
			t.Errorf("capsule %#04x still routed to dead station", row.Handle)
		}
	}
	if rep.Reporting == 0 {
		t.Fatal("degraded fleet must still report data")
	}
	if f.AliveStations() != f.Stations()-1 {
		t.Errorf("%d/%d stations alive", f.AliveStations(), f.Stations())
	}
	// Under 10 % corruption the NAK/retry machinery must have engaged.
	if rep.CorruptedReplies == 0 {
		t.Error("10% corruption produced no corrupted replies")
	}

	rep2, _ := run()
	if rep.Text() != rep2.Text() {
		t.Errorf("same seed, different bytes\n--- run 1\n%s--- run 2\n%s", rep.Text(), rep2.Text())
	}
}
