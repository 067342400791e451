// Package telemetry is the zero-dependency instrumentation core of the
// EcoCapsule stack: atomic counters, gauges and fixed-bucket histograms
// collected in a Registry that renders both the Prometheus text exposition
// format and JSON, plus a lightweight span tracer whose IDs come from a
// seeded RNG so traces stay byte-reproducible in golden tests.
//
// Metric names follow the `ecocapsule_<pkg>_<name>` convention (enforced by
// the ecolint `metricname` analyzer). Handles are cheap: a counter update is
// one atomic add, and instrumented hot paths hold pre-resolved handles in
// package-level vars rather than looking families up per event.
package telemetry

//ecolint:deterministic

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefBuckets is the default histogram bucketing: logarithmic from 1 ms to
// ~100 s, suiting both link latencies and survey durations in seconds.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(delta float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// series is one label combination of a family: a scalar value for counters
// and gauges, bucket counts plus sum/count for histograms.
type series struct {
	labelValues []string
	value       atomicFloat
	// Histogram state (nil for scalar kinds). buckets[i] counts
	// observations ≤ the family's upperBounds[i]; count and sum aggregate
	// every observation.
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat
}

// Counter is a monotonically increasing metric handle.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.value.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(delta float64) {
	if delta > 0 {
		c.s.value.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.s.value.Load() }

// Gauge is a set-to-current-value metric handle.
type Gauge struct{ s *series }

// Set stores the current value.
func (g *Gauge) Set(v float64) { g.s.value.Store(v) }

// Add shifts the gauge by delta (negative allowed).
func (g *Gauge) Add(delta float64) { g.s.value.Add(delta) }

// Histogram is a fixed-bucket distribution handle.
type Histogram struct {
	s           *series
	upperBounds []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upperBounds {
		if v <= ub {
			h.s.buckets[i].Add(1)
			break
		}
	}
	h.s.count.Add(1)
	h.s.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.s.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.s.sum.Load() }

// Quantile estimates the q-quantile (q in [0, 1]; values outside are
// clamped) by linear interpolation inside the fixed buckets, the same
// estimate a Prometheus histogram_quantile would produce. The lower edge
// of the first bucket is 0. Observations beyond the last upper bound live
// in an unbounded overflow region, so a quantile landing there clamps to
// the last upper bound — callers wanting tail fidelity should size their
// top bucket past the worst expected sample. An empty histogram returns
// NaN.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.s.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	lower := 0.0
	for i, ub := range h.upperBounds {
		c := float64(h.s.buckets[i].Load())
		if c > 0 && cum+c >= rank {
			return lower + (ub-lower)*(rank-cum)/c
		}
		cum += c
		lower = ub
	}
	// The quantile falls in the overflow region above the last bound.
	return h.upperBounds[len(h.upperBounds)-1]
}

// Summary is a point-in-time digest of a histogram, shaped for JSON
// reports (shmload emits one per latency family).
type Summary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary digests the histogram. An empty histogram yields the zero
// Summary (not NaNs) so the result always JSON-marshals cleanly.
func (h *Histogram) Summary() Summary {
	count := h.s.count.Load()
	if count == 0 {
		return Summary{}
	}
	sum := h.s.sum.Load()
	return Summary{
		Count: count,
		Sum:   sum,
		Mean:  sum / float64(count),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// family is one named metric with a fixed label schema.
type family struct {
	name        string
	help        string
	kind        Kind
	labelNames  []string
	upperBounds []float64 // histogram only

	mu sync.RWMutex
	//ecolint:guardedby mu
	series map[string]*series
}

// labelKey joins label values with a separator that cannot appear in a
// well-formed label value boundary ambiguity (0xFF is invalid UTF-8).
func labelKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0xFF)
		}
		b = append(b, v...)
	}
	return string(b)
}

// getSeries returns (creating on first use) the series for the label values.
func (f *family) getSeries(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: %s expects %d label value(s), got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.buckets = make([]atomic.Uint64, len(f.upperBounds))
	}
	f.series[key] = s
	return s
}

// sortedSeries returns the family's series ordered by label values.
func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	return out
}

// CounterVec is a labelled counter family handle.
type CounterVec struct{ f *family }

// With resolves the counter for the given label values (in declaration
// order), creating the series on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{s: v.f.getSeries(values)}
}

// GaugeVec is a labelled gauge family handle.
type GaugeVec struct{ f *family }

// With resolves the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{s: v.f.getSeries(values)}
}

// HistogramVec is a labelled histogram family handle.
type HistogramVec struct{ f *family }

// With resolves the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{s: v.f.getSeries(values), upperBounds: v.f.upperBounds}
}
