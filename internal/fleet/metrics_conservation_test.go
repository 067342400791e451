package fleet

import (
	"fmt"
	"sort"
	"testing"

	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/telemetry"
)

// readSeries flattens the read metrics a survey or fleet read moves into
// one value per rendered series: reader reads by result, fleet reads by
// route, and every read_attempts bucket (cumulative, as /metrics renders
// it) plus the histogram's count and sum.
func readSeries() map[string]float64 {
	out := map[string]float64{}
	for _, fam := range telemetry.Default().Snapshot() {
		switch fam.Name {
		case "ecocapsule_reader_reads_total", "ecocapsule_fleet_reads_total":
			for _, s := range fam.Series {
				for k, v := range s.Labels {
					out[fmt.Sprintf("%s{%s=%s}", fam.Name, k, v)] = s.Value
				}
			}
		case "ecocapsule_reader_read_attempts":
			for _, s := range fam.Series {
				for _, b := range s.Buckets {
					out[fmt.Sprintf("%s_bucket{le=%g}", fam.Name, b.UpperBound)] = float64(b.Count)
				}
				out[fam.Name+"_count"] = float64(s.Count)
				out[fam.Name+"_sum"] = s.Sum
			}
		}
	}
	return out
}

// readDeltas is how far one call moves each readSeries series.
type readDeltas struct {
	// ok and errs are reader reads by result.
	ok, errs float64
	// primary, rerouted and failed are fleet reads by route.
	primary, rerouted, failed float64
	// le holds the cumulative read_attempts buckets, le 1, 2, 3, 4, 6, 8.
	le         [6]float64
	count, sum float64
}

// series keys d the way readSeries does.
func (d readDeltas) series() map[string]float64 {
	const reads, route, attempts = "ecocapsule_reader_reads_total", "ecocapsule_fleet_reads_total",
		"ecocapsule_reader_read_attempts"
	out := map[string]float64{
		reads + "{result=ok}":      d.ok,
		reads + "{result=error}":   d.errs,
		route + "{route=primary}":  d.primary,
		route + "{route=rerouted}": d.rerouted,
		route + "{route=failed}":   d.failed,
		attempts + "_count":        d.count,
		attempts + "_sum":          d.sum,
	}
	for i, le := range [...]float64{1, 2, 3, 4, 6, 8} {
		out[fmt.Sprintf("%s_bucket{le=%g}", attempts, le)] = d.le[i]
	}
	return out
}

// TestReadMetricTotalsConserved pins the read metric totals a faulted
// fleet publishes after every survey and fleet read: however the reads
// are counted inside, /metrics must move by exactly these amounts once
// the call returns. The plan moves every series: frame loss and
// corruption force retries (attempt buckets above 1), muted capsules fail
// on every station (reader errors, failed fleet reads), and reads the
// serving station loses are rerouted.
func TestReadMetricTotalsConserved(t *testing.T) {
	f, err := NewCityFleet(300, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	f.SetEnvironment(CityEnvironment)
	muted := []uint16{40, 160, 280}
	f.ApplyInjector(faultinject.MustNew(faultinject.Plan{
		Seed:             11,
		FrameLossProb:    0.3,
		FrameCorruptProb: 0.1,
		DeadStations:     []int{f.Stations() / 2},
		MutedCapsules:    muted,
	}))
	const served = 100
	for _, h := range append([]uint16{served}, muted...) {
		if f.BestStation(h) < 0 {
			t.Fatalf("capsule %#04x has no serving station under the plan", h)
		}
	}

	survey := func() { f.Survey(0.4) }
	readVia := func(h uint16) func() {
		return func() { _, _, _ = f.ReadSensorVia(h, sensors.TypeTempHumidity) }
	}
	// Recorded from the per-read counting the totals must keep matching.
	steps := []struct {
		name string
		run  func()
		want readDeltas
	}{
		{"survey 1", survey, readDeltas{ok: 542, errs: 264, primary: 507, rerouted: 35, failed: 58,
			le: [6]float64{234, 371, 453, 498, 542, 542}, count: 542, sum: 1154}},
		{"survey 2", survey, readDeltas{ok: 542, errs: 277, primary: 496, rerouted: 46, failed: 58,
			le: [6]float64{218, 358, 458, 509, 542, 542}, count: 542, sum: 1167}},
		{"survey 3", survey, readDeltas{ok: 542, errs: 268, primary: 505, rerouted: 37, failed: 58,
			le: [6]float64{243, 372, 445, 499, 542, 542}, count: 542, sum: 1151}},
		{"ReadSensorVia served", readVia(served), readDeltas{ok: 1, primary: 1,
			le: [6]float64{1, 1, 1, 1, 1, 1}, count: 1, sum: 1}},
		{"ReadSensorVia muted", readVia(muted[0]), readDeltas{errs: 3, failed: 1}},
		{"ReadSensorVia unknown", readVia(0xfff0), readDeltas{failed: 1}},
	}
	moved := map[string]bool{}
	for _, s := range steps {
		before := readSeries()
		s.run()
		after := readSeries()
		want := s.want.series()
		var keys []string
		for k := range after {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) != len(want) {
			t.Fatalf("%s: read series %v, want the %d that readDeltas names", s.name, keys, len(want))
		}
		for _, k := range keys {
			got := after[k] - before[k]
			if got != 0 {
				moved[k] = true
			}
			if got != want[k] {
				t.Errorf("%s: %s moved by %v, want %v", s.name, k, got, want[k])
			}
		}
	}
	for k := range readSeries() {
		if !moved[k] {
			t.Errorf("no step moved %s: the plan no longer exercises it", k)
		}
	}
}
