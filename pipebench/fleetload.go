package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/fleet"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/shmwire"
	"ecocapsule/internal/telemetry"
	"ecocapsule/internal/units"
)

const (
	// cityCapsules sizes city_survey: a survey takes tens of ms and the
	// fleet holds about 200 MB of heap.
	cityCapsules = 3000
	// faultedCapsules sizes faulted_survey, whose serial schedule visits
	// every capsule on one goroutine.
	faultedCapsules = 800
	// cityShards is the spatial shard count of both fleets.
	cityShards = 8
	// chargeDuration is the survey's charge window (s).
	chargeDuration = 0.4
	// mutedCapsules is the number of capsules faulted_survey mutes.
	mutedCapsules = 3
	// readSample is the number of handles the reader.read_us probe reads.
	readSample = 64
)

// City-wall layout, as fleet.NewCityFleet lays it out: handle 1 sits at
// x = 0.5 m and each next handle 5 cm further along the wall.
const (
	cityFirstX = 0.5  //ecolint:unit m
	cityPitch  = 0.05 //ecolint:unit m
)

// Sensor noise of one reading (sensors package): the band a correct
// reading lies in is 6σ around the ground truth.
const (
	sigmaTempC   = 0.15
	sigmaRH      = 1.0
	sigmaStrain  = 0.5 * units.UE
	noiseBandSig = 6
)

// concreteModulus converts the reported x-strain into the stress the
// Telemetry frame carries.
var concreteModulus = material.NC().ElasticModulus

// fleetWorkload is city_survey (no faults, parallel schedule) and
// faulted_survey (a seeded fault plan, serial schedule).
type fleetWorkload struct {
	capsules, shards int
	seed             int64
	faulted, traced  bool

	f     *fleet.Fleet
	inj   *faultinject.Injector
	hook  *timedFaults
	dead  int
	muted []uint16
	links float64

	// samples counts environment-sampler callbacks (one per sensor read
	// that reached a powered capsule).
	samples atomic.Int64
	// Cumulative SHMReport link counters and Survey CPU/wall.
	retries, corrupted, rerouted float64
	surveyCPU, surveyWall        time.Duration

	last fleet.SHMReport
}

func (w *fleetWorkload) sample(pos geometry.Vec3) sensors.Environment {
	w.samples.Add(1)
	return fleet.CityEnvironment(pos)
}

func (w *fleetWorkload) build() error {
	linksTotal := telemetry.Default().Counter("ecocapsule_channel_links_total", "")
	before := linksTotal.Value()
	f, err := fleet.NewCityFleet(w.capsules, w.shards, w.seed)
	if err != nil {
		return err
	}
	w.links = linksTotal.Value() - before
	w.f = f
	f.SetEnvironment(w.sample)
	if !w.faulted {
		return nil
	}
	// One interior station dies; the muted capsules are drawn from those
	// that another station still serves, so they are missing, not orphaned.
	w.dead = f.Stations() / 2
	f.KillStation(w.dead)
	rng := rand.New(rand.NewSource(w.seed))
	seen := map[uint16]bool{}
	for len(w.muted) < mutedCapsules {
		h := uint16(1 + rng.Intn(w.capsules))
		if !seen[h] && f.BestStation(h) >= 0 {
			w.muted = append(w.muted, h)
		}
		seen[h] = true
	}
	sort.Slice(w.muted, func(a, b int) bool { return w.muted[a] < w.muted[b] })
	w.inj, err = faultinject.New(faultinject.Plan{
		Seed:             w.seed,
		FrameLossProb:    0.03,
		FrameCorruptProb: 0.02,
		BrownoutProb:     0.002,
		DeadStations:     []int{w.dead},
		MutedCapsules:    w.muted,
	})
	if err != nil {
		return err
	}
	f.ApplyInjector(w.inj)
	if w.traced {
		// The forwarding wrapper replaces the injector as the frame hook;
		// it makes the same draws in the same order.
		w.hook = &timedFaults{in: w.inj}
		f.SetFrameFaults(w.hook)
	}
	return nil
}

func (w *fleetWorkload) warm() error {
	w.last = w.f.Survey(chargeDuration)
	return w.check()
}

func (w *fleetWorkload) run(op int, tr *tracer, root int) cycle {
	sp := tr.begin(op, root, "fleet.survey")
	var ru0 syscall.Rusage
	if tr != nil {
		ru0 = rusage()
	}
	start := time.Now()
	rep := w.f.Survey(chargeDuration)
	if tr != nil {
		w.surveyWall += time.Since(start)
		w.surveyCPU += cpuTime(rusage()) - cpuTime(ru0)
	}
	tr.end(sp)
	w.last = rep
	w.retries += float64(rep.Retries)
	w.corrupted += float64(rep.CorruptedReplies)
	w.rerouted += float64(rep.ReroutedReads)

	ts := simTime(op)
	c := cycle{requested: rep.Expected, frames: make([]shmwire.Telemetry, 0, rep.Reporting)}
	for _, row := range rep.Rows {
		if row.Status != "ok" {
			continue
		}
		c.frames = append(c.frames, shmwire.Telemetry{
			Timestamp:    ts,
			CapsuleID:    row.Handle,
			StressMPa:    row.StrainX * concreteModulus / units.MPa,
			TemperatureC: row.TemperatureC,
			Humidity:     row.RelativeHumidity,
		})
	}
	missing := append(append([]uint16(nil), rep.Missing...), rep.Orphans...)
	sort.Slice(missing, func(a, b int) bool { return missing[a] < missing[b] })
	c.status = shmwire.Status{
		Timestamp:    ts,
		Expected:     uint16(rep.Expected),
		Reporting:    uint16(rep.Reporting),
		Degraded:     rep.Degraded,
		MissingNodes: missing,
	}
	return c
}

func (w *fleetWorkload) check() error {
	rep := w.last
	if len(rep.Rows) != rep.Expected || rep.Expected != w.capsules {
		return fmt.Errorf("report has %d rows for %d expected of %d capsules", len(rep.Rows), rep.Expected, w.capsules)
	}
	if !w.faulted {
		if rep.Degraded || rep.Reporting != rep.Expected {
			return fmt.Errorf("clean survey degraded: %d/%d reporting", rep.Reporting, rep.Expected)
		}
		for _, row := range rep.Rows {
			if err := inNoiseBand(row); err != nil {
				return err
			}
		}
		return nil
	}
	if got := rep.Reporting + len(rep.Missing) + len(rep.Orphans); got != rep.Expected {
		return fmt.Errorf("reporting %d + missing %d + orphans %d != expected %d",
			rep.Reporting, len(rep.Missing), len(rep.Orphans), rep.Expected)
	}
	if len(rep.DeadStations) != 1 || rep.DeadStations[0] != w.dead {
		return fmt.Errorf("dead stations %v, want [%d]", rep.DeadStations, w.dead)
	}
	missing := map[uint16]bool{}
	for _, h := range rep.Missing {
		missing[h] = true
	}
	for _, h := range w.muted {
		if !missing[h] {
			return fmt.Errorf("muted capsule %#04x not listed missing", h)
		}
	}
	return nil
}

// inNoiseBand checks one clean row against CityEnvironment at its
// capsule's position.
func inNoiseBand(row fleet.SurveyRow) error {
	x := cityFirstX + float64(row.Handle-1)*cityPitch
	env := fleet.CityEnvironment(geometry.Vec3{X: x})
	for _, c := range []struct {
		name      string
		got, want float64
		sigma     float64
	}{
		{"temperature", row.TemperatureC, env.TemperatureC, sigmaTempC},
		{"humidity", row.RelativeHumidity, env.RelativeHumidity, sigmaRH},
		{"strain x", row.StrainX, env.StrainX, sigmaStrain},
		{"strain y", row.StrainY, env.StrainY, sigmaStrain},
	} {
		if math.Abs(c.got-c.want) > noiseBandSig*c.sigma {
			return fmt.Errorf("capsule %#04x %s %g outside %d sigma of %g", row.Handle, c.name, c.got, noiseBandSig, c.want)
		}
	}
	return nil
}

func (w *fleetWorkload) text() string { return w.last.Text() }

func (w *fleetWorkload) counters() map[string]float64 {
	c := map[string]float64{
		"fleet.reads_per_op":      float64(w.samples.Load()),
		"reader.retries_per_op":   w.retries,
		"reader.corrupted_per_op": w.corrupted,
		"fleet.rerouted_per_op":   w.rerouted,
		"conc.cpu_s":              w.surveyCPU.Seconds(),
		"conc.wall_s":             w.surveyWall.Seconds(),
	}
	if w.inj != nil {
		st := w.inj.Stats()
		c["faultinject.dropped_per_op"] = float64(st.DownlinkDropped + st.UplinkDropped)
		c["faultinject.brownouts_per_op"] = float64(st.Brownouts)
	}
	if w.hook != nil {
		c["faultinject.frames_per_op"] = float64(w.hook.frames.Load())
		c["faultinject.hook_us"] = float64(w.hook.ns.Load()) / 1e3
	}
	return c
}

func (w *fleetWorkload) setTraced(on bool) {
	if w.hook != nil {
		w.hook.on.Store(on)
	}
}

func (w *fleetWorkload) cacheStats() (float64, float64) {
	// Each station's reader owns a private link cache the fleet does not
	// expose; every fleet link is a distinct cache key, built once at
	// construction, so the entry count is the links built and no lookup
	// ever hits.
	return w.links, 0
}

func (w *fleetWorkload) probes() (map[string]float64, error) {
	out := map[string]float64{}
	var reads []float64
	for i := 0; i < readSample; i++ {
		h := uint16(1 + (i*w.capsules)/readSample)
		start := time.Now()
		_, _, err := w.f.ReadSensorVia(h, sensors.TypeTempHumidity)
		d := time.Since(start)
		if err == nil {
			reads = append(reads, float64(d.Nanoseconds())/1e3)
		}
	}
	if len(reads) == 0 {
		return nil, fmt.Errorf("reader.read_us: no probe read succeeded")
	}
	out["reader.read_us"] = median(reads)
	var charges []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		w.f.Charge(chargeDuration)
		charges = append(charges, ms(time.Since(start)))
	}
	out["fleet.charge_ms"] = median(charges)
	return out, nil
}

// timedFaults forwards the reader's frame-fault hooks to the injector and,
// while on, accumulates the time spent inside them. Forwarding makes the
// same draws in the same order, so the faulted schedule is unchanged.
type timedFaults struct {
	in     *faultinject.Injector
	on     atomic.Bool
	ns     atomic.Int64
	frames atomic.Int64
}

func (t *timedFaults) Downlink(h uint16, frame []byte) ([]byte, bool) {
	t.frames.Add(1)
	if !t.on.Load() {
		return t.in.Downlink(h, frame)
	}
	start := time.Now()
	out, ok := t.in.Downlink(h, frame)
	t.ns.Add(int64(time.Since(start)))
	return out, ok
}

func (t *timedFaults) Uplink(h uint16, frame []byte) ([]byte, bool) {
	t.frames.Add(1)
	if !t.on.Load() {
		return t.in.Uplink(h, frame)
	}
	start := time.Now()
	out, ok := t.in.Uplink(h, frame)
	t.ns.Add(int64(time.Since(start)))
	return out, ok
}

func (t *timedFaults) Brownout(h uint16) bool {
	if !t.on.Load() {
		return t.in.Brownout(h)
	}
	start := time.Now()
	b := t.in.Brownout(h)
	t.ns.Add(int64(time.Since(start)))
	return b
}

// rusage reads the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is user + system CPU time.
func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
