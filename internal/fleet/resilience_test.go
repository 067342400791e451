package fleet

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ecocapsule/internal/deploy"
	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/units"
)

func surveyEnv(pos geometry.Vec3) sensors.Environment {
	return sensors.Environment{
		TemperatureC: 20 + pos.X, RelativeHumidity: 55,
		StrainX: 100 * units.UE, StrainY: 40 * units.UE,
	}
}

// coverageDegraded reports whether the fleet, read under one route lock,
// has a dead station or an orphaned capsule.
func coverageDegraded(f *Fleet) bool {
	f.route.RLock()
	defer f.route.RUnlock()
	_, orphans := f.coverageLocked()
	return f.aliveStationsLocked() < len(f.readers) || orphans > 0
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

// TestBestStationHeadsReadOrder pins the routing rule against an oracle
// read straight from the station readers: under no kill, each single-station
// kill, each adjacent-pair kill and every station dead, every capsule's read order is its alive
// stations with a positive amplitude, strongest first, ties on ascending
// station index, and its best station is that order's head (-1 when nothing
// alive reaches it). The survey counts a read as rerouted when any other
// station served it, so the two must agree.
func TestBestStationHeadsReadOrder(t *testing.T) {
	demo, _, err := NewDemoFleet(DemoSeed)
	if err != nil {
		t.Fatal(err)
	}
	city, err := NewCityFleet(300, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewCityFleetFlat(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Twin readers bolted at one mounting deliver bit-identical amplitudes
	// to every capsule, so this fleet pins the tie rule.
	wall := geometry.CommonWall()
	at := func(x float64) deploy.Station {
		return deploy.Station{Position: geometry.Vec3{X: x, Y: wall.Height / 2, Z: 0}}
	}
	var capsules []*node.Node
	for i := 0; i < 6; i++ {
		capsules = append(capsules, node.New(node.Config{
			Handle:   uint16(0x40 + i),
			Position: geometry.Vec3{X: 6 + 1.5*float64(i), Y: wall.Height / 2, Z: 0.1},
			Seed:     int64(i),
		}))
	}
	twin, err := New(wall, deploy.Plan{Voltage: 200, Stations: []deploy.Station{at(14), at(5), at(5)}}, capsules, 3)
	if err != nil {
		t.Fatal(err)
	}
	orphansSeen, tiesSeen := 0, 0
	check := func(name string, f *Fleet, amps [][]float64) {
		alive := make([]bool, f.Stations())
		for i := range alive {
			alive[i] = f.StationAlive(i)
		}
		for c, n := range f.nodes {
			var want []int
			for i, amp := range amps[c] {
				if alive[i] && amp > 0 {
					want = append(want, i)
				}
			}
			sort.SliceStable(want, func(a, b int) bool { return amps[c][want[a]] > amps[c][want[b]] })
			for k := 1; k < len(want); k++ {
				if amps[c][want[k]] == amps[c][want[k-1]] {
					tiesSeen++
				}
			}
			if got := f.readOrder(nil, c, alive); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: capsule %#04x read order %v, want %v", name, n.Handle(), got, want)
			}
			head := -1
			if len(want) > 0 {
				head = want[0]
			} else {
				orphansSeen++
			}
			if got := f.BestStation(n.Handle()); got != head {
				t.Errorf("%s: capsule %#04x best %d, want %d", name, n.Handle(), got, head)
			}
		}
	}
	for _, tc := range []struct {
		name string
		f    *Fleet
	}{{"demo", demo}, {"city", city}, {"flat", flat}, {"twin", twin}} {
		f := tc.f
		// amps[c][i] is station i's amplitude at capsule c, 0 where the
		// station never deployed it.
		amps := make([][]float64, len(f.nodes))
		for c, n := range f.nodes {
			amps[c] = make([]float64, f.Stations())
			for i, r := range f.readers {
				if amp, err := r.NodeAmplitude(n.Handle()); err == nil {
					amps[c][i] = amp
				}
			}
		}
		check(tc.name, f, amps)
		for i := 0; i < f.Stations(); i++ {
			f.KillStation(i)
			check(fmt.Sprintf("%s, station %d dead", tc.name, i), f, amps)
			if i+1 < f.Stations() {
				f.KillStation(i + 1)
				check(fmt.Sprintf("%s, stations %d,%d dead", tc.name, i, i+1), f, amps)
				f.ReviveStation(i + 1)
			}
			f.ReviveStation(i)
		}
		// Every capsule here reaches at least three stations, so only a
		// fully dead fleet orphans them.
		for i := 0; i < f.Stations(); i++ {
			f.KillStation(i)
		}
		check(tc.name+", every station dead", f, amps)
		for i := 0; i < f.Stations(); i++ {
			f.ReviveStation(i)
		}
	}
	if orphansSeen == 0 {
		t.Error("no liveness mask orphaned a capsule; the -1 case went unchecked")
	}
	if tiesSeen == 0 {
		t.Error("no two stations tied on amplitude; the tie rule went unchecked")
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
