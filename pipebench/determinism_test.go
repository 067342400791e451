package main

import (
	"reflect"
	"testing"
)

// detOps is the number of ops the determinism tests compare.
const detOps = 3

// timeCounters are per-layer values measured in wall or CPU time, which no
// seed can make repeat.
var timeCounters = map[string]bool{"faultinject.hook_us": true, "conc.cpu_s": true, "conc.wall_s": true}

// opTrace is what a determinism test compares across runs.
type opTrace struct {
	texts  []string
	counts []map[string]float64
}

func runOps(t *testing.T, name string, seed int64, traced bool) opTrace {
	t.Helper()
	in, err := setUp(name, seed, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer in.hub.close()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var out opTrace
	for op := 0; op < detOps; op++ {
		rec, err := runOp(in, op, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.w.check(); err != nil {
			t.Fatalf("op %d output check: %v", op, err)
		}
		if rec.err != nil {
			t.Fatalf("op %d subscriber check: %v", op, rec.err)
		}
		counts := map[string]float64{
			"shmwire.frames": float64(rec.frames),
			"shmwire.bytes":  float64(rec.bytes),
			"delivered":      float64(rec.delivered),
		}
		for k, v := range rec.counts {
			if !timeCounters[k] {
				counts[k] = v
			}
		}
		out.texts = append(out.texts, in.w.text())
		out.counts = append(out.counts, counts)
	}
	return out
}

func TestSameSeedSameReportsAndCounts(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := runOps(t, name, 5, true)
			b := runOps(t, name, 5, true)
			for op := range a.texts {
				if a.texts[op] != b.texts[op] {
					t.Errorf("op %d report differs between runs of one seed:\n%s\nvs\n%s", op, a.texts[op], b.texts[op])
				}
			}
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Errorf("per-layer counts differ between runs of one seed:\n%v\nvs\n%v", a.counts, b.counts)
			}
		})
	}
}

// TestTracedFaultedReportsEqualUntraced: the traced run swaps the injector
// for a forwarding, timing wrapper; the reports must not change.
func TestTracedFaultedReportsEqualUntraced(t *testing.T) {
	traced := runOps(t, "faulted_survey", 9, true)
	plain := runOps(t, "faulted_survey", 9, false)
	if !reflect.DeepEqual(traced.texts, plain.texts) {
		t.Error("traced faulted_survey reports differ from the untraced run's")
	}
	if traced.counts[0]["faultinject.frames_per_op"] == 0 {
		t.Error("traced run counted no fault-hook frames; the wrapper is not installed")
	}
}

func TestSeedsChangeInputs(t *testing.T) {
	a := runOps(t, "acoustic_round", 1, false)
	b := runOps(t, "acoustic_round", 2, false)
	if reflect.DeepEqual(a.texts, b.texts) {
		t.Error("two seeds produced identical acoustic rounds")
	}
}
