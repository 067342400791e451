//go:build !race

// The race detector's instrumentation allocates on its own account, so
// this file's allocation counts only hold in a plain build.

package fleet

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestSurveyAllocsDoNotScaleWithCapsules pins what a warm survey leaves on
// the heap: its report rows, and otherwise only a fixed handful of objects
// (the liveness copy, the pool's queue counts and closures). A survey of a
// city fleet ten times larger may allocate its larger rows slice and
// nothing else more — no per-shard job list, no per-capsule scratch.
func TestSurveyAllocsDoNotScaleWithCapsules(t *testing.T) {
	const (
		surveys = 20
		// objectSlack absorbs the pool's goroutine bookkeeping, which
		// does not depend on the capsule count but can vary by an
		// object or two between runs.
		objectSlack = 4
		// byteBound is what a survey may allocate beyond its rows.
		byteBound = 16 << 10
	)
	type allocs struct{ objects, bytes float64 }
	measure := func(capsules int) allocs {
		f, err := NewCityFleet(capsules, 8, 5)
		if err != nil {
			t.Fatal(err)
		}
		f.SetEnvironment(CityEnvironment)
		rep := f.Survey(0.4) // warm: charge ramp, link scratch
		if rep.Degraded {
			t.Fatalf("%d capsules: warm survey degraded:\n%s", capsules, rep.Text())
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < surveys; i++ {
			rep = f.Survey(0.4)
		}
		runtime.ReadMemStats(&after)
		rows := float64(len(rep.Rows)) * float64(unsafe.Sizeof(SurveyRow{}))
		a := allocs{
			objects: float64(after.Mallocs-before.Mallocs) / surveys,
			bytes:   float64(after.TotalAlloc-before.TotalAlloc)/surveys - rows,
		}
		t.Logf("%d capsules: %.1f objects, %.0f B beyond %.0f B of rows per survey",
			capsules, a.objects, a.bytes, rows)
		return a
	}
	small, large := measure(300), measure(3000)
	if d := large.objects - small.objects; d > objectSlack || d < -objectSlack {
		t.Errorf("objects per survey: %.1f at 300 capsules, %.1f at 3000; want equal within %d",
			small.objects, large.objects, objectSlack)
	}
	for _, a := range []allocs{small, large} {
		if a.bytes > byteBound {
			t.Errorf("survey allocated %.0f B beyond its rows, want <= %d", a.bytes, byteBound)
		}
	}
}

// TestCityFleetLiveHeap bounds what a warm city fleet keeps on the heap.
// A reader keeps one small link record per capsule it serves (the node,
// the link's path gain, a channel pointer left nil), and builds no
// waveform channel, arrival list or convolver until an acoustic round or
// broadcast needs one; a frame-level survey never does. A fleet that
// built a full channel per link held about 36 MB here.
func TestCityFleetLiveHeap(t *testing.T) {
	const (
		capsules = 3000
		// heapBound is the live heap the warm fleet may hold.
		heapBound = 8 << 20
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := NewCityFleet(capsules, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	f.SetEnvironment(CityEnvironment)
	if rep := f.Survey(0.4); rep.Degraded {
		t.Fatalf("warm survey degraded:\n%s", rep.Text())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("warm %d-capsule city fleet: %.1f MB live heap", capsules, float64(live)/(1<<20))
	if live > heapBound {
		t.Errorf("warm %d-capsule city fleet holds %.1f MB of live heap, want <= %.0f MB",
			capsules, float64(live)/(1<<20), float64(heapBound)/(1<<20))
	}
}
