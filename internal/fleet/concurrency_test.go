package fleet

import (
	"runtime"
	"testing"

	"ecocapsule/internal/sensors"
)

// TestSurveyWithConcurrentStationChurn drives surveys while another
// goroutine kills and revives stations — the field failure mode the
// liveness lock exists for. Run under -race (verify.sh does), this pins
// the routing state as data-race free; functionally, every survey must
// still account for every capsule, whatever interleaving it observed.
func TestSurveyWithConcurrentStationChurn(t *testing.T) {
	f, capsules := wallFleet(t)
	f.SetEnvironment(surveyEnv)
	f.Charge(0.4)

	const churnRounds = 40
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < churnRounds; i++ {
			victim := i % f.Stations()
			f.KillStation(victim)
			f.ReviveStation(victim)
		}
	}()
	for i := 0; i < 4; i++ {
		rep := f.Survey(0.05)
		counted := rep.Reporting + len(rep.Missing) + len(rep.Orphans)
		if counted != len(capsules) {
			t.Errorf("survey %d lost capsules: %d reporting + %d missing + %d orphans != %d",
				i, rep.Reporting, len(rep.Missing), len(rep.Orphans), len(capsules))
		}
		if len(rep.Rows) != len(capsules) {
			t.Errorf("survey %d: %d rows", i, len(rep.Rows))
		}
	}
	<-churnDone

	// After the churn settles every station is alive again and a clean
	// survey reports full coverage.
	if f.AliveStations() != f.Stations() {
		t.Fatalf("%d/%d stations alive after churn", f.AliveStations(), f.Stations())
	}
	rep := f.Survey(0.4)
	if rep.Reporting != len(capsules) {
		t.Errorf("settled survey reporting %d/%d:\n%s", rep.Reporting, len(capsules), rep.Text())
	}
}

// TestConcurrentReadsAndInventory exercises the fleet's read path from
// several goroutines at once (the dashboard polls while the scheduler
// inventories). Under -race this pins the route lock and the reader's
// internal lock.
func TestConcurrentReadsAndInventory(t *testing.T) {
	f, capsules := wallFleet(t)
	f.SetEnvironment(surveyEnv)
	f.Charge(0.4)
	done := make(chan struct{}, len(capsules)+1)
	for _, n := range capsules {
		handle := n.Handle()
		go func() {
			defer func() { done <- struct{}{} }()
			if _, err := f.ReadSensor(handle, sensors.TypeTempHumidity); err != nil {
				t.Errorf("read %#04x: %v", handle, err)
			}
		}()
	}
	go func() {
		defer func() { done <- struct{}{} }()
		if found := f.Inventory(16); len(found) != len(capsules) {
			t.Errorf("inventory found %v", found)
		}
	}()
	for i := 0; i < len(capsules)+1; i++ {
		<-done
	}
}

// TestSurveyParallelMatchesSerial pins the determinism contract of the
// parallel survey: on a multi-shard fleet the pool fans the survey out at
// GOMAXPROCS >= 2, and at GOMAXPROCS=1 it runs every item inline in queue
// order; both schedules must produce byte-identical text.
func TestSurveyParallelMatchesSerial(t *testing.T) {
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f := shardedSurveyFleet(t, 3)
		if f.Shards() < 2 {
			t.Fatalf("want a multi-shard fleet, got %d shards", f.Shards())
		}
		f.SetEnvironment(surveyEnv)
		return f.Survey(0.4).Text()
	}
	parallel := run(4)
	serial := run(1)
	if parallel != serial {
		t.Errorf("parallel survey diverged from serial:\n--- parallel\n%s--- serial\n%s",
			parallel, serial)
	}
}
