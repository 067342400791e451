package fleet

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ecocapsule/internal/sensors"
	"ecocapsule/internal/telemetry"
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

// overlapFaults is a pass-through FrameFaults for the survey-isolation
// test. It parks the first downlink to gated while armed, until release
// closes, and corrupts the first reply of every (capsule, sensor) pair for
// the strain and accelerometer sensors — one retry per strain read the
// survey makes, and one for a forced accelerometer read, a sensor the
// survey never reads. Every effect is keyed by capsule and sensor, so it
// does not depend on how the survey's reads interleave with others.
type overlapFaults struct {
	gated   uint16
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}

	mu sync.Mutex
	//ecolint:guardedby mu
	spoilt map[[2]uint16]bool
}

func newOverlapFaults(gated uint16) *overlapFaults {
	return &overlapFaults{
		gated:   gated,
		parked:  make(chan struct{}),
		release: make(chan struct{}),
		spoilt:  make(map[[2]uint16]bool),
	}
}

func (o *overlapFaults) Downlink(h uint16, frame []byte) ([]byte, bool) {
	if h == o.gated && o.armed.CompareAndSwap(true, false) {
		close(o.parked)
		<-o.release
	}
	return frame, true
}

func (o *overlapFaults) Uplink(h uint16, frame []byte) ([]byte, bool) {
	kind := sensors.SensorType(frame[2])
	if kind != sensors.TypeStrain && kind != sensors.TypeAccelerometer {
		return frame, true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	key := [2]uint16{h, uint16(kind)}
	if o.spoilt[key] {
		return frame, true
	}
	o.spoilt[key] = true
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xFF
	return bad, true
}

// rootSubtree cuts the named root span and its descendants out of a
// rendered span tree.
func rootSubtree(tree, name string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.SplitAfter(tree, "\n") {
		if line != "" && line[0] != ' ' {
			in = strings.HasPrefix(line, name+" [")
		}
		if in {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestSurveyIsolatedFromConcurrentReadAndInventory forces a standalone
// fleet read and a fleet inventory to run start to finish while a traced
// survey is parked mid-read, and pins that the survey owns exactly its own
// reads: its span subtree matches a solo survey's byte for byte, the forced
// read's span is a root of its own, and the report's link counters are the
// sums over the survey's own reads even though the forced read retried.
func TestSurveyIsolatedFromConcurrentReadAndInventory(t *testing.T) {
	const gated, forced = uint16(0x80), uint16(0x83)
	run := func(overlap bool) (SHMReport, string) {
		f, _ := wallFleet(t)
		f.SetEnvironment(surveyEnv)
		tr := telemetry.NewTracer(11)
		f.SetTracer(tr)
		ff := newOverlapFaults(gated)
		f.SetFrameFaults(ff)
		blocked := f.BestStation(gated)
		if f.BestStation(forced) == blocked {
			t.Fatalf("capsules %#04x and %#04x share station %d", gated, forced, blocked)
		}
		if !overlap {
			rep, _ := f.SurveyTraced(0.4)
			return rep, tr.Tree()
		}
		ff.armed.Store(true)
		done := make(chan SHMReport)
		go func() {
			rep, _ := f.SurveyTraced(0.4)
			done <- rep
		}()
		// The survey now holds the gated capsule's station, mid-read. The
		// survey copied liveness before its reads, so killing that station
		// only steers the forced work (the inventory visits every serving
		// station) around the parked reader.
		<-ff.parked
		f.KillStation(blocked)
		if _, err := f.ReadSensor(forced, sensors.TypeAccelerometer); err != nil {
			t.Errorf("forced read: %v", err)
		}
		f.Inventory(4)
		f.ReviveStation(blocked)
		close(ff.release)
		return <-done, tr.Tree()
	}
	solo, soloTree := run(false)
	rep, tree := run(true)

	survey := rootSubtree(tree, "survey")
	if want := rootSubtree(soloTree, "survey"); survey != want {
		t.Errorf("survey subtree picked up foreign spans:\n--- overlapped\n%s--- solo\n%s", survey, want)
	}
	forcedRoot := false
	for _, line := range strings.Split(tree, "\n") {
		if strings.HasPrefix(line, "read [") && strings.Contains(line, fmt.Sprintf("capsule=0x%04x", forced)) {
			forcedRoot = true
			if !strings.Contains(line, "attempts=2") {
				t.Errorf("forced read did not retry: %s", line)
			}
		}
	}
	if !forcedRoot {
		t.Errorf("forced read is not a root span:\n%s", tree)
	}
	// The survey's own reads, summed from its subtree: each read retried
	// attempts-1 times, and each bad-CRC decode is one corrupted reply.
	retries, corrupted := 0, 0
	for _, line := range strings.Split(survey, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		for _, kv := range fields[2:] {
			if n, ok := strings.CutPrefix(kv, "attempts="); ok && fields[0] == "read" {
				a, err := strconv.Atoi(n)
				if err != nil {
					t.Fatal(err)
				}
				retries += a - 1
			}
			if fields[0] == "decode" && kv == "result=bad_crc" {
				corrupted++
			}
		}
	}
	if retries == 0 || corrupted == 0 {
		t.Fatalf("survey made no retries (%d) or corrupted replies (%d); the check is vacuous", retries, corrupted)
	}
	if rep.Retries != retries || rep.CorruptedReplies != corrupted {
		t.Errorf("report counts %d retries, %d corrupted; the survey's own reads made %d, %d",
			rep.Retries, rep.CorruptedReplies, retries, corrupted)
	}
	if rep.Retries != solo.Retries || rep.CorruptedReplies != solo.CorruptedReplies || rep.Backoff != solo.Backoff {
		t.Errorf("overlapped report link counters (%d, %d, %v) differ from solo (%d, %d, %v)",
			rep.Retries, rep.CorruptedReplies, rep.Backoff, solo.Retries, solo.CorruptedReplies, solo.Backoff)
	}
}
