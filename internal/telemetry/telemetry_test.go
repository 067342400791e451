package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// render runs WritePrometheus into a string.
func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestPrometheusRendering pins the text exposition format with table-driven
// scenarios: escaping, label ordering, histogram cumulative buckets, and
// zero-value omission of unused labelled families.
func TestPrometheusRendering(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*Registry)
		want  string
	}{
		{
			name: "plain counter renders at zero",
			setup: func(r *Registry) {
				r.Counter("ecocapsule_test_frames_total", "frames seen")
			},
			want: "# HELP ecocapsule_test_frames_total frames seen\n" +
				"# TYPE ecocapsule_test_frames_total counter\n" +
				"ecocapsule_test_frames_total 0\n",
		},
		{
			name: "counter accumulates",
			setup: func(r *Registry) {
				c := r.Counter("ecocapsule_test_frames_total", "frames seen")
				c.Inc()
				c.Add(2.5)
				c.Add(-10) // ignored: counters are monotone
			},
			want: "# HELP ecocapsule_test_frames_total frames seen\n" +
				"# TYPE ecocapsule_test_frames_total counter\n" +
				"ecocapsule_test_frames_total 3.5\n",
		},
		{
			name: "gauge set and add",
			setup: func(r *Registry) {
				g := r.Gauge("ecocapsule_test_depth", "queue depth")
				g.Set(7)
				g.Add(-2)
			},
			want: "# HELP ecocapsule_test_depth queue depth\n" +
				"# TYPE ecocapsule_test_depth gauge\n" +
				"ecocapsule_test_depth 5\n",
		},
		{
			name: "unused labelled family omitted",
			setup: func(r *Registry) {
				r.CounterVec("ecocapsule_test_unused_total", "never touched", "kind")
				r.Counter("ecocapsule_test_alive", "rendered")
			},
			want: "# HELP ecocapsule_test_alive rendered\n" +
				"# TYPE ecocapsule_test_alive counter\n" +
				"ecocapsule_test_alive 0\n",
		},
		{
			name: "label values sorted and escaped",
			setup: func(r *Registry) {
				v := r.CounterVec("ecocapsule_test_events_total", "events", "kind")
				v.With(`quote"back\slash`).Inc()
				v.With("line\nbreak").Inc()
				v.With("plain").Add(2)
			},
			want: "# HELP ecocapsule_test_events_total events\n" +
				"# TYPE ecocapsule_test_events_total counter\n" +
				"ecocapsule_test_events_total{kind=\"line\\nbreak\"} 1\n" +
				"ecocapsule_test_events_total{kind=\"plain\"} 2\n" +
				"ecocapsule_test_events_total{kind=\"quote\\\"back\\\\slash\"} 1\n",
		},
		{
			name: "help escaped",
			setup: func(r *Registry) {
				r.Counter("ecocapsule_test_esc_total", "line one\nback\\slash")
			},
			want: "# HELP ecocapsule_test_esc_total line one\\nback\\\\slash\n" +
				"# TYPE ecocapsule_test_esc_total counter\n" +
				"ecocapsule_test_esc_total 0\n",
		},
		{
			name: "families sorted by name",
			setup: func(r *Registry) {
				r.Counter("ecocapsule_test_b_total", "b")
				r.Counter("ecocapsule_test_a_total", "a")
			},
			want: "# HELP ecocapsule_test_a_total a\n" +
				"# TYPE ecocapsule_test_a_total counter\n" +
				"ecocapsule_test_a_total 0\n" +
				"# HELP ecocapsule_test_b_total b\n" +
				"# TYPE ecocapsule_test_b_total counter\n" +
				"ecocapsule_test_b_total 0\n",
		},
		{
			name: "histogram cumulative buckets sum count",
			setup: func(r *Registry) {
				h := r.Histogram("ecocapsule_test_latency_seconds", "latency", []float64{0.1, 1, 10})
				h.Observe(0.05) // le 0.1
				h.Observe(0.5)  // le 1
				h.Observe(0.7)  // le 1
				h.Observe(99)   // +Inf only
			},
			want: "# HELP ecocapsule_test_latency_seconds latency\n" +
				"# TYPE ecocapsule_test_latency_seconds histogram\n" +
				"ecocapsule_test_latency_seconds_bucket{le=\"0.1\"} 1\n" +
				"ecocapsule_test_latency_seconds_bucket{le=\"1\"} 3\n" +
				"ecocapsule_test_latency_seconds_bucket{le=\"10\"} 3\n" +
				"ecocapsule_test_latency_seconds_bucket{le=\"+Inf\"} 4\n" +
				"ecocapsule_test_latency_seconds_sum 100.25\n" +
				"ecocapsule_test_latency_seconds_count 4\n",
		},
		{
			name: "labelled histogram keeps le last",
			setup: func(r *Registry) {
				v := r.HistogramVec("ecocapsule_test_ber", "bit error rate", []float64{0.01}, "link")
				v.With("0x10").Observe(0.5)
			},
			want: "# HELP ecocapsule_test_ber bit error rate\n" +
				"# TYPE ecocapsule_test_ber histogram\n" +
				"ecocapsule_test_ber_bucket{link=\"0x10\",le=\"0.01\"} 0\n" +
				"ecocapsule_test_ber_bucket{link=\"0x10\",le=\"+Inf\"} 1\n" +
				"ecocapsule_test_ber_sum{link=\"0x10\"} 0.5\n" +
				"ecocapsule_test_ber_count{link=\"0x10\"} 1\n",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			c.setup(r)
			if got := render(t, r); got != c.want {
				t.Errorf("rendering mismatch\n--- got\n%s--- want\n%s", got, c.want)
			}
		})
	}
}

// TestHistogramBucketInvariant checks the cumulative invariant for every
// prefix: bucket counts never decrease and the +Inf bucket equals _count.
func TestHistogramBucketInvariant(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ecocapsule_test_inv", "invariant", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%11) + 0.5)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	s := snap[0].Series[0]
	prev := uint64(0)
	for _, b := range s.Buckets {
		if b.Count < prev {
			t.Errorf("bucket le=%g count %d < previous %d (not cumulative)", b.UpperBound, b.Count, prev)
		}
		prev = b.Count
	}
	if s.Count != 100 {
		t.Errorf("count = %d, want 100", s.Count)
	}
	if prev > s.Count {
		t.Errorf("last finite bucket %d exceeds count %d", prev, s.Count)
	}
}

// TestObserveNMatchesRepeatedObserve pins the batch form: ObserveN(v, n)
// renders exactly as n calls of Observe(v), and n = 0 records nothing.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	batched, single := NewRegistry(), NewRegistry()
	hb := batched.Histogram("ecocapsule_test_attempts", "attempts", []float64{1, 2, 4})
	hs := single.Histogram("ecocapsule_test_attempts", "attempts", []float64{1, 2, 4})
	for _, obs := range []struct {
		v float64
		n uint64
	}{{1, 3}, {3, 2}, {9, 4}, {2, 0}} {
		hb.ObserveN(obs.v, obs.n)
		for i := uint64(0); i < obs.n; i++ {
			hs.Observe(obs.v)
		}
	}
	if got, want := render(t, batched), render(t, single); got != want {
		t.Errorf("ObserveN rendering\n%s\nwant\n%s", got, want)
	}
}

// TestSchemaMismatchPanics pins the registration contract.
func TestSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ecocapsule_test_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("ecocapsule_test_x_total", "x")
}

// TestRegistryConcurrency hammers one registry from 32 goroutines — new
// series creation, counter/gauge/histogram updates and concurrent renders —
// and then checks the totals. Run under -race this is the data-race gate
// for the whole metrics core.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ecocapsule_test_total", "shared counter")
	g := r.Gauge("ecocapsule_test_level", "shared gauge")
	h := r.Histogram("ecocapsule_test_lat", "latencies", []float64{1, 10, 100})
	vec := r.CounterVec("ecocapsule_test_by_worker_total", "per-worker", "worker")

	const workers = 32
	const iters = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := vec.With(fmt.Sprintf("w%02d", w))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 150))
				mine.Inc()
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Errorf("concurrent render: %v", err)
						return
					}
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %g, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := vec.With(fmt.Sprintf("w%02d", w)).Value(); got != iters {
			t.Errorf("worker %d counter = %g, want %d", w, got, iters)
		}
	}
}

// TestCounterIncExactUnderContention hammers one counter from many
// goroutines (run it with -race): Inc is one atomic integer add, so the
// count is exact, and /metrics and JSON render it byte for byte as the
// same number of Add(1) calls on the float path would.
func TestCounterIncExactUnderContention(t *testing.T) {
	const workers, incs = 16, 5000
	r := NewRegistry()
	c := r.Counter("ecocapsule_test_incs_total", "contended counter")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*incs {
		t.Fatalf("counter = %g after %d×%d increments, want %d", got, workers, incs, workers*incs)
	}

	ref := NewRegistry()
	rc := ref.Counter("ecocapsule_test_incs_total", "contended counter")
	for i := 0; i < workers*incs; i++ {
		rc.Add(1)
	}
	if got, want := render(t, r), render(t, ref); got != want {
		t.Errorf("Inc renders\n%s\nAdd(1) renders\n%s", got, want)
	}
	gotJSON, _ := json.Marshal(r.Snapshot())
	wantJSON, _ := json.Marshal(ref.Snapshot())
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("Inc snapshot %s, Add(1) snapshot %s", gotJSON, wantJSON)
	}
	// Inc and Add deltas sum into one value.
	c.Add(0.5)
	if got := c.Value(); got != workers*incs+0.5 {
		t.Errorf("Inc count plus Add(0.5) = %g", got)
	}
}

// TestFamiliesCount checks the omission-aware family counter used by the
// verify.sh smoke assertion.
func TestFamiliesCount(t *testing.T) {
	r := NewRegistry()
	r.Counter("ecocapsule_test_a_total", "a")
	r.CounterVec("ecocapsule_test_b_total", "unused vec", "k")
	if got := r.Families(); got != 1 {
		t.Errorf("Families() = %d, want 1 (unused vec must not count)", got)
	}
}

// TestWriteJSONNonFinite pins the JSON escape hatch for values JSON cannot
// carry as numbers: a noiseless simulation stores +Inf in the SNR gauge, and
// the snapshot must still encode (the regression was an empty 200 response
// from /api/telemetry).
func TestWriteJSONNonFinite(t *testing.T) {
	r := NewRegistry()
	r.Gauge("ecocapsule_test_snr_db", "gauge holding +Inf").Set(math.Inf(1))
	r.Gauge("ecocapsule_test_floor_db", "gauge holding -Inf").Set(math.Inf(-1))
	h := r.Histogram("ecocapsule_test_latency_s", "histogram with +Inf sum", []float64{1})
	h.Observe(math.Inf(1))

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := b.String()
	var generic []any
	if err := json.Unmarshal([]byte(out), &generic); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	for _, want := range []string{`"+Inf"`, `"-Inf"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s marker:\n%s", want, out)
		}
	}
}
