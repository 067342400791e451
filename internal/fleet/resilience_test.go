package fleet

import (
	"fmt"
	"strings"
	"testing"

	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/units"
)

func surveyEnv(pos geometry.Vec3) sensors.Environment {
	return sensors.Environment{
		TemperatureC: 20 + pos.X, RelativeHumidity: 55,
		StrainX: 100 * units.UE, StrainY: 40 * units.UE,
	}
}

// coverageDegraded reports whether routing, read as one snapshot, has a
// dead station or an orphaned capsule.
func coverageDegraded(f *Fleet) bool {
	snap := f.snapshotRouting()
	return len(snap.dead) > 0 || len(snap.orphans) > 0
}

func TestKillStationReroutesAndRevives(t *testing.T) {
	f, _ := wallFleet(t)
	if f.AliveStations() != f.Stations() {
		t.Fatalf("fresh fleet: %d/%d alive", f.AliveStations(), f.Stations())
	}
	victim := f.BestStation(0x80)
	if coverageDegraded(f) {
		t.Fatal("fresh fleet must not be degraded")
	}
	f.KillStation(victim)
	if f.StationAlive(victim) {
		t.Fatal("killed station still alive")
	}
	if !coverageDegraded(f) {
		t.Error("coverage with a dead station must be degraded")
	}
	if got := f.BestStation(0x80); got == victim {
		t.Errorf("capsule 0x80 still routed to dead station %d", got)
	}
	f.ReviveStation(victim)
	if !f.StationAlive(victim) || coverageDegraded(f) {
		t.Error("revive must restore full coverage")
	}
	if got := f.BestStation(0x80); got != victim {
		t.Errorf("capsule 0x80 routed to %d after revive, want %d", got, victim)
	}
	// Out-of-range indices are ignored, not panics.
	f.KillStation(-1)
	f.KillStation(99)
	f.ReviveStation(-1)
	f.ReviveStation(99)
}

// TestBestStationHeadsReadOrder pins the routing rule in one place: with
// no station dead and under each single-station kill, every capsule's best
// station is the head of its read order (-1 when nothing alive reaches
// it). The survey counts a read as rerouted when any other station served
// it, so the two must agree.
func TestBestStationHeadsReadOrder(t *testing.T) {
	demo, _, err := NewDemoFleet(DemoSeed)
	if err != nil {
		t.Fatal(err)
	}
	city, err := NewCityFleet(300, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, f *Fleet) {
		snap := f.snapshotRouting()
		for c, best := range snap.best {
			want := -1
			if order := f.readOrder(c, snap.alive); len(order) > 0 {
				want = order[0]
			}
			if best != want {
				t.Errorf("%s: capsule %#04x best %d, read order head %d", name, f.nodes[c].Handle(), best, want)
			}
		}
	}
	for _, tc := range []struct {
		name string
		f    *Fleet
	}{{"demo", demo}, {"city", city}} {
		check(tc.name, tc.f)
		for i := 0; i < tc.f.Stations(); i++ {
			tc.f.KillStation(i)
			check(fmt.Sprintf("%s, station %d dead", tc.name, i), tc.f)
			tc.f.ReviveStation(i)
		}
	}
}

func TestSurveyFullCoverage(t *testing.T) {
	f, capsules := wallFleet(t)
	f.SetEnvironment(surveyEnv)
	rep := f.Survey(0.4)
	if rep.Degraded {
		t.Fatalf("healthy fleet produced degraded survey:\n%s", rep.Text())
	}
	if rep.Reporting != len(capsules) || rep.Expected != len(capsules) {
		t.Errorf("reporting %d/%d", rep.Reporting, rep.Expected)
	}
	if len(rep.Rows) != len(capsules) {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	// Rows are in ascending handle order and carry plausible readings.
	for i, row := range rep.Rows {
		if row.Handle != uint16(0x80+i) {
			t.Errorf("row %d handle %#04x", i, row.Handle)
		}
		if row.Status != "ok" {
			t.Errorf("row %#04x status %q", row.Handle, row.Status)
		}
	}
	// The x=18 capsule reads ≈38 °C under the position-dependent env.
	last := rep.Rows[3]
	if last.TemperatureC < 36 || last.TemperatureC > 40 {
		t.Errorf("capsule 0x83 temperature %.2f", last.TemperatureC)
	}
	if !strings.Contains(rep.Text(), "coverage FULL") {
		t.Errorf("text:\n%s", rep.Text())
	}
}

func TestSurveyDegradedAfterStationLoss(t *testing.T) {
	f, _ := wallFleet(t)
	f.SetEnvironment(surveyEnv)
	f.KillStation(f.BestStation(0x83))
	rep := f.Survey(0.4)
	if !rep.Degraded {
		t.Fatalf("survey with dead station not degraded:\n%s", rep.Text())
	}
	if len(rep.DeadStations) != 1 {
		t.Errorf("dead stations %v", rep.DeadStations)
	}
	// The survey completes and reports every capsule either ok, missing, or
	// orphaned — never an error.
	counted := rep.Reporting + len(rep.Missing) + len(rep.Orphans)
	if counted != rep.Expected {
		t.Errorf("rows don't account for every capsule: %d reporting + %d missing + %d orphans != %d",
			rep.Reporting, len(rep.Missing), len(rep.Orphans), rep.Expected)
	}
	if !strings.Contains(rep.Text(), "coverage DEGRADED") {
		t.Errorf("text:\n%s", rep.Text())
	}
}

func TestSurveyDeterministicAcrossRuns(t *testing.T) {
	texts := make([]string, 2)
	for i := range texts {
		f, _ := wallFleet(t)
		f.SetEnvironment(surveyEnv)
		f.ApplyInjector(faultinject.MustNew(faultinject.Plan{
			Seed:             42,
			FrameCorruptProb: 0.10,
			DeadStations:     []int{0},
		}))
		texts[i] = f.Survey(0.4).Text()
	}
	if texts[0] != texts[1] {
		t.Errorf("same seed, different surveys:\n--- run 0\n%s--- run 1\n%s", texts[0], texts[1])
	}
}

func TestApplyInjectorMutedCapsuleGoesMissing(t *testing.T) {
	f, _ := wallFleet(t)
	f.SetEnvironment(surveyEnv)
	f.ApplyInjector(faultinject.MustNew(faultinject.Plan{
		Seed:          7,
		MutedCapsules: []uint16{0x82},
	}))
	rep := f.Survey(0.4)
	if !rep.Degraded {
		t.Fatalf("muted capsule must degrade the survey:\n%s", rep.Text())
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != 0x82 {
		t.Errorf("missing %v, want [0x82]", rep.Missing)
	}
	if rep.Reporting != rep.Expected-1 {
		t.Errorf("reporting %d/%d", rep.Reporting, rep.Expected)
	}
	// The muted capsule burned the reader's whole retry budget.
	if rep.Retries == 0 {
		t.Error("muting must force retries")
	}
}

func TestApplyInjectorStuckSensorFreezesReadings(t *testing.T) {
	f, _ := wallFleet(t)
	f.ApplyInjector(faultinject.MustNew(faultinject.Plan{
		Seed:         3,
		StuckSensors: []uint16{0x81},
	}))
	f.Charge(0.4)
	// Vary the environment between reads: a healthy capsule tracks it, the
	// stuck one replays its first sample.
	temp := 20.0
	f.SetEnvironment(func(geometry.Vec3) sensors.Environment {
		return sensors.Environment{TemperatureC: temp, RelativeHumidity: 50}
	})
	first, err := f.ReadSensor(0x81, sensors.TypeTempHumidity)
	if err != nil {
		t.Fatal(err)
	}
	temp = 90
	second, err := f.ReadSensor(0x81, sensors.TypeTempHumidity)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != second[0] {
		t.Errorf("stuck sensor moved: %.2f → %.2f", first[0], second[0])
	}
	healthy1, err := f.ReadSensor(0x80, sensors.TypeTempHumidity)
	if err != nil {
		t.Fatal(err)
	}
	temp = 20
	healthy2, err := f.ReadSensor(0x80, sensors.TypeTempHumidity)
	if err != nil {
		t.Fatal(err)
	}
	if healthy1[0] == healthy2[0] {
		t.Error("healthy sensor should track the 70 °C swing")
	}
}

func TestReadSensorFailsWhenAllStationsDead(t *testing.T) {
	f, _ := wallFleet(t)
	f.Charge(0.4)
	for i := 0; i < f.Stations(); i++ {
		f.KillStation(i)
	}
	if _, err := f.ReadSensor(0x80, sensors.TypeTempHumidity); err == nil {
		t.Fatal("read through an all-dead fleet must error")
	}
	if f.AliveStations() != 0 {
		t.Errorf("%d stations alive", f.AliveStations())
	}
}
