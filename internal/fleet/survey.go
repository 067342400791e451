package fleet

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"ecocapsule/internal/conc"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/telemetry"
	"ecocapsule/internal/units"
)

// SurveyRow is one capsule's line in an SHM survey.
type SurveyRow struct {
	Handle uint16
	// Station is the serving station index, -1 for orphans.
	Station int
	// Status is "ok", "orphan", or "missing".
	Status string
	// TemperatureC / RelativeHumidity / StrainX / StrainY hold the decoded
	// readings when Status is "ok".
	TemperatureC     float64
	RelativeHumidity float64
	StrainX          float64
	StrainY          float64
}

// SHMReport is the fleet-level structural health survey. A partially
// covered fleet (dead stations, orphaned or unreadable capsules) still
// produces a report — flagged Degraded and annotated with what is missing —
// because a building operator needs the remaining coverage, not an error.
type SHMReport struct {
	Stations      int
	AliveStations int
	DeadStations  []int
	// Expected / Reporting count the deployed capsules and the subset that
	// answered their sensor reads.
	Expected  int
	Reporting int
	// Missing lists capsules that are served but did not answer; Orphans
	// lists capsules no alive station reaches at all.
	Missing []uint16
	Orphans []uint16
	// Degraded is set when any station is dead or any capsule is absent.
	Degraded bool
	// Link-layer resilience counters accumulated during the survey.
	CorruptedReplies int
	Retries          int
	Backoff          time.Duration
	// ReroutedReads counts successful reads a fallback station (not the
	// capsule's serving station) answered during this survey.
	ReroutedReads int
	Rows          []SurveyRow
}

// Text renders the report deterministically — same fleet state and seed,
// byte-identical output — so surveys can be diffed and pinned in tests.
func (rep SHMReport) Text() string {
	var b strings.Builder
	health := "FULL"
	if rep.Degraded {
		health = "DEGRADED"
	}
	fmt.Fprintf(&b, "SHM survey: coverage %s\n", health)
	fmt.Fprintf(&b, "stations: %d alive / %d deployed", rep.AliveStations, rep.Stations)
	if len(rep.DeadStations) > 0 {
		fmt.Fprintf(&b, " (dead:%s)", joinInts(rep.DeadStations))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "capsules: %d reporting / %d expected", rep.Reporting, rep.Expected)
	if len(rep.Missing) > 0 {
		fmt.Fprintf(&b, " (missing:%s)", joinHandles(rep.Missing))
	}
	if len(rep.Orphans) > 0 {
		fmt.Fprintf(&b, " (orphaned:%s)", joinHandles(rep.Orphans))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "link: %d corrupted replies, %d retries, %d rerouted reads\n",
		rep.CorruptedReplies, rep.Retries, rep.ReroutedReads)
	for _, row := range rep.Rows {
		if row.Status != "ok" {
			fmt.Fprintf(&b, "  %#04x st=%2d %s\n", row.Handle, row.Station, row.Status)
			continue
		}
		fmt.Fprintf(&b, "  %#04x st=%2d ok T=%6.2fC RH=%5.1f%% strain=(%8.1f,%8.1f)ue\n",
			row.Handle, row.Station, row.TemperatureC, row.RelativeHumidity,
			row.StrainX/units.UE, row.StrainY/units.UE)
	}
	return b.String()
}

// Survey charges the fleet, then reads temperature/humidity and strain from
// every capsule through its serving station (falling back through
// alternates), and assembles the health report. Rows come out in ascending
// handle order.
//
// Capsules are independent at this layer — each has its own MCU state,
// seeded sensor RNG, fault-draw key and span key, and every reader
// serialises its own acoustic link — so the per-capsule reads fan out over
// the cores and land in per-index row slots. A capsule's reads (fallback
// stations included) all run in one goroutine, which fixes its draw and
// span sequences; the report is byte-identical at any shard count and
// GOMAXPROCS, faults and tracing included.
func (f *Fleet) Survey(chargeDuration float64) SHMReport {
	rep, _ := f.SurveyTraced(chargeDuration)
	return rep
}

// SurveyTraced runs Survey under one root span. When a tracer is installed
// (SetTracer), the fleet's charge span and every reader's per-capsule read
// spans (keyed by handle, so they render in ascending handle order) nest
// under the returned "survey" span, so a single trace tree covers the whole
// fleet pass; the caller may hang broadcast spans off it before it is
// rendered. Every read is handed the span as its parent and returns its own
// link counters, so reads and inventories running on the fleet outside the
// survey neither nest under the span nor count in the report. Without a
// tracer the span is nil and the survey is identical to Survey.
func (f *Fleet) SurveyTraced(chargeDuration float64) (SHMReport, *telemetry.Span) {
	f.route.RLock()
	tracer := f.tracer
	f.route.RUnlock()
	var sp *telemetry.Span
	if tracer != nil {
		sp = tracer.Start("survey")
	}
	// The fleet charge drives node excitation directly (not through
	// reader.Charge), so the survey span records the stage itself.
	if sp != nil {
		csp := sp.Child("charge").Attrf("duration_s", "%g", chargeDuration)
		csp.Attr("powered", f.Charge(chargeDuration)).End()
	} else {
		f.Charge(chargeDuration)
	}
	// One liveness copy feeds the whole report: the header counts, the dead
	// list and every row's stations all derive from it, so a station kill
	// or revive racing the survey can never make the report disagree with
	// itself — a row is only ever served by a station the same report
	// lists alive.
	f.route.RLock()
	alive := append([]bool(nil), f.alive...)
	f.route.RUnlock()
	rep := SHMReport{Stations: len(f.readers), Expected: len(f.nodes)}
	for i, a := range alive {
		if a {
			rep.AliveStations++
		} else {
			rep.DeadStations = append(rep.DeadStations, i)
		}
	}
	// Per-shard batched passes on the work-stealing pool; each capsule's
	// row lands in its own slot, which is already in handle order.
	rep.Rows = make([]SurveyRow, len(f.nodes))
	// links[c] accumulates the link counters of capsule c's own reads.
	links := make([]reader.FaultStats, len(f.nodes))
	var rerouted atomic.Int64
	visit := func(c int) {
		row := &rep.Rows[c]
		h := f.nodes[c].Handle()
		stations := f.readOrder(c, alive)
		row.Handle, row.Station = h, -1
		if len(stations) == 0 {
			row.Status = "orphan"
			return
		}
		row.Station = stations[0]
		th, servedT, errT := f.readVia(sp, &links[c], h, sensors.TypeTempHumidity, stations)
		st, servedS, errS := f.readVia(sp, &links[c], h, sensors.TypeStrain, stations)
		for _, served := range [...]int{servedT, servedS} {
			if served >= 0 && served != row.Station {
				rerouted.Add(1)
			}
		}
		if errT != nil || errS != nil || len(th) < 2 || len(st) < 2 {
			row.Status = "missing"
		} else {
			row.Status = "ok"
			// Report the station that actually answered, which a fallback
			// read can make different from the serving station.
			row.Station = servedT
			row.TemperatureC, row.RelativeHumidity = th[0], th[1]
			row.StrainX, row.StrainY = st[0], st[1]
		}
	}
	counts := make([]int, len(f.shards))
	for qi, sh := range f.shards {
		counts[qi] = len(sh.nodes)
	}
	conc.Queues(counts, func(q, item int) {
		visit(f.shards[q].nodes[item])
	})
	// Missing and Orphans inherit the rows' handle order; the link counters
	// are the sum of the rows' own.
	for c, row := range rep.Rows {
		rep.CorruptedReplies += links[c].CorruptedReplies
		rep.Retries += links[c].Retries
		rep.Backoff += links[c].Backoff
		switch row.Status {
		case "missing":
			rep.Missing = append(rep.Missing, row.Handle)
		case "orphan":
			rep.Orphans = append(rep.Orphans, row.Handle)
		case "ok":
			rep.Reporting++
		}
	}
	rep.ReroutedReads = int(rerouted.Load())
	rep.Degraded = len(rep.DeadStations) > 0 || len(rep.Missing) > 0 || len(rep.Orphans) > 0
	if rep.Degraded {
		cSurveysDegraded.Inc()
		telemetry.RecordFlight("fleet", "survey_degraded",
			fmt.Sprintf("reporting %d/%d, dead stations %d, missing %d, orphans %d",
				rep.Reporting, rep.Expected, len(rep.DeadStations), len(rep.Missing), len(rep.Orphans)))
		// A degraded survey is exactly the moment an operator wants the
		// black box: snapshot the recent event ring as the last dump.
		telemetry.Flight().Dump("fleet: survey degraded")
	} else {
		cSurveysFull.Inc()
	}
	if rep.Expected > 0 {
		mReportingRatio.Set(float64(rep.Reporting) / float64(rep.Expected))
	}
	if sp != nil {
		sp.Attr("stations", rep.Stations).Attr("alive", rep.AliveStations).
			Attr("expected", rep.Expected).Attr("reporting", rep.Reporting).
			Attr("degraded", rep.Degraded)
		sp.End()
	}
	return rep, sp
}

// joinInts renders ints as a comma list.
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}

// joinHandles renders handles as a comma list of hex ids.
func joinHandles(xs []uint16) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%#04x", x)
	}
	return strings.Join(parts, ",")
}
