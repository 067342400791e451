// Package telemetry is the zero-dependency instrumentation core of the
// EcoCapsule stack: atomic counters, gauges and fixed-bucket histograms
// collected in a Registry that renders both the Prometheus text exposition
// format and JSON, plus a lightweight span tracer whose IDs come from a
// seeded RNG so traces stay byte-reproducible in golden tests.
//
// Metric names follow the `ecocapsule_<pkg>_<name>` convention (enforced by
// the ecolint `metricname` analyzer). Instrumented hot paths hold
// pre-resolved handles in package-level vars rather than looking families
// up per event. An update is an atomic read-modify-write on a cache line
// every core shares, so a path that handles thousands of events per
// operation counts them in state it owns (a field under a lock it already
// holds, or a local) and publishes once per operation with Counter.Add and
// Histogram.ObserveN, before the operation's result is visible to anyone
// who could read the metrics.
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
	// value is a gauge's value, or the sum of a counter's Add deltas.
	value atomicFloat
	// Histogram state (nil for scalar kinds). buckets[i] counts
	// observations ≤ the family's upperBounds[i]; count and sum aggregate
	// every observation. A counter counts its Inc calls in count: one
	// atomic add, which never retries under contention as a CAS on float
	// bits does.
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat
}

// scalar returns a counter's or gauge's value. A gauge never counts, so
// it returns value bit for bit (a negative zero included).
func (s *series) scalar() float64 {
	if n := s.count.Load(); n > 0 {
		return float64(n) + s.value.Load()
	}
	return s.value.Load()
}

// Counter is a monotonically increasing metric handle.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.count.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(delta float64) {
	if delta > 0 {
		c.s.value.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.s.scalar() }

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
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v at the cost of one: the batch
// form of Observe.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	for i, ub := range h.upperBounds {
		if v <= ub {
			h.s.buckets[i].Add(n)
			break
		}
	}
	h.s.count.Add(n)
	h.s.sum.Add(v * float64(n))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.s.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.s.sum.Load() }

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
