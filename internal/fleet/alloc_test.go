package fleet

import (
	"testing"

	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
)

// TestSurveyReadZeroAlloc pins the survey's per-capsule read at zero heap
// objects once the stations' exchange scratch is warm: the route order
// lands in a stack buffer, the capsule's reading and both wire frames in
// the station's scratch, and the decoded values in a fixed-size array.
func TestSurveyReadZeroAlloc(t *testing.T) {
	f, _, err := NewDemoFleet(DemoSeed)
	if err != nil {
		t.Fatal(err)
	}
	if f.Charge(0.4) == 0 {
		t.Fatal("nothing powered up")
	}
	f.route.RLock()
	alive := append([]bool(nil), f.alive...)
	f.route.RUnlock()
	for c, n := range f.nodes {
		h := n.Handle()
		read := func() {
			var link reader.FaultStats
			var buf [maxRoutes]int
			stations := f.readOrder(buf[:0], c, alive)
			for _, st := range [...]sensors.SensorType{sensors.TypeTempHumidity, sensors.TypeStrain} {
				if _, _, err := f.readVia(nil, &link, h, st, stations); err != nil {
					t.Fatalf("capsule %#04x: %v", h, err)
				}
			}
		}
		read() // warm the serving station's scratch
		if allocs := testing.AllocsPerRun(20, read); allocs != 0 {
			t.Errorf("capsule %#04x: survey read allocated %.1f objects, want 0", h, allocs)
		}
	}
}
