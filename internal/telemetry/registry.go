package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry (or use the package Default).
type Registry struct {
	mu sync.RWMutex
	//ecolint:guardedby mu
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry the instrumented packages
// register into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// resolve returns (or creates) a family, enforcing schema consistency:
// re-registering a name returns the existing family only when kind and
// labels match — a mismatch is a programming error and panics.
func (r *Registry) resolve(name, help string, kind Kind, labelNames []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v with %d label(s); have %v with %d",
				name, kind, len(labelNames), f.kind, len(f.labelNames)))
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic(fmt.Sprintf("telemetry: %s re-registered with label %q, have %q",
					name, labelNames[i], f.labelNames[i]))
			}
		}
		return f
	}
	f := &family{
		name:        name,
		help:        help,
		kind:        kind,
		labelNames:  append([]string(nil), labelNames...),
		upperBounds: bounds,
		series:      make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter registers (or resolves) an unlabelled counter. The single series
// is created eagerly so the family renders from process start.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.resolve(name, help, KindCounter, nil, nil)
	return &Counter{s: f.getSeries(nil)}
}

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.resolve(name, help, KindGauge, nil, nil)
	return &Gauge{s: f.getSeries(nil)}
}

// Histogram registers an unlabelled histogram. A nil buckets slice uses
// DefBuckets; bounds must be strictly increasing.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.resolve(name, help, KindHistogram, nil, checkBuckets(name, buckets))
	return &Histogram{s: f.getSeries(nil), upperBounds: f.upperBounds}
}

// CounterVec registers a labelled counter family. Series appear as label
// combinations are first used; a vec with no series yet is omitted from the
// rendered output.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.resolve(name, help, KindCounter, labelNames, nil)}
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.resolve(name, help, KindGauge, labelNames, nil)}
}

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.resolve(name, help, KindHistogram, labelNames, checkBuckets(name, buckets))}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: %s buckets not strictly increasing at %d", name, i))
		}
	}
	return append([]float64(nil), buckets...)
}

// Package-level conveniences registering into the Default registry.

// NewCounter registers an unlabelled counter on the default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.Counter(name, help) }

// NewGauge registers an unlabelled gauge on the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.Gauge(name, help) }

// NewHistogram registers an unlabelled histogram on the default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return defaultRegistry.Histogram(name, help, buckets)
}

// NewCounterVec registers a labelled counter family on the default registry.
func NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return defaultRegistry.CounterVec(name, help, labelNames...)
}

// NewGaugeVec registers a labelled gauge family on the default registry.
func NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return defaultRegistry.GaugeVec(name, help, labelNames...)
}

// sortedFamilies snapshots the families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*family, len(names))
	for i, n := range names {
		out[i] = r.families[n]
	}
	return out
}

// escapeHelp escapes backslash and newline for HELP lines.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, double quote and newline for label values.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {a="x",b="y"}; extra appends one more pair (used for
// the histogram le label). Empty schemas render nothing.
func writeLabels(b *strings.Builder, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s="%s"`, extraName, extraValue)
	}
	b.WriteByte('}')
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with HELP and TYPE
// lines, histogram buckets cumulative with a closing +Inf bucket plus _sum
// and _count. Labelled families that have never been used are omitted.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		series := f.sortedSeries()
		if len(series) == 0 {
			continue // zero-value omission: no label combination ever used
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range series {
			switch f.kind {
			case KindHistogram:
				cum := uint64(0)
				for i, ub := range f.upperBounds {
					cum += s.buckets[i].Load()
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, f.labelNames, s.labelValues, "le", formatValue(ub))
					fmt.Fprintf(&b, " %d\n", cum)
				}
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, f.labelNames, s.labelValues, "le", "+Inf")
				fmt.Fprintf(&b, " %d\n", s.count.Load())
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, f.labelNames, s.labelValues, "", "")
				fmt.Fprintf(&b, " %s\n", formatValue(s.sum.Load()))
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, f.labelNames, s.labelValues, "", "")
				fmt.Fprintf(&b, " %d\n", s.count.Load())
			default:
				b.WriteString(f.name)
				writeLabels(&b, f.labelNames, s.labelValues, "", "")
				fmt.Fprintf(&b, " %s\n", formatValue(s.value.Load()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SeriesSnapshot is one label combination in a Snapshot.
type SeriesSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counter/gauge samples (and histogram sums stay in Sum).
	Value float64 `json:"value"`
	// Histogram-only fields.
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Count   uint64           `json:"count,omitempty"`
}

// jsonFloat renders non-finite values as the strings "+Inf"/"-Inf"/"NaN";
// encoding/json rejects them as numbers, and a noiseless simulation
// legitimately reports an infinite SNR gauge.
type jsonFloat float64

func (v jsonFloat) MarshalJSON() ([]byte, error) {
	f := float64(v)
	switch {
	case math.IsInf(f, +1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(f):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(f)
}

// MarshalJSON substitutes non-finite Value/Sum samples so a snapshot always
// encodes, whatever the instrumented code stored.
func (s SeriesSnapshot) MarshalJSON() ([]byte, error) {
	type plain SeriesSnapshot
	return json.Marshal(struct {
		plain
		Value jsonFloat `json:"value"`
		Sum   jsonFloat `json:"sum,omitempty"`
	}{plain(s), jsonFloat(s.Value), jsonFloat(s.Sum)})
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON handles an explicit +Inf upper bound the same way.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	type plain BucketSnapshot
	return json.Marshal(struct {
		plain
		UpperBound jsonFloat `json:"le"`
	}{plain(b), jsonFloat(b.UpperBound)})
}

// FamilySnapshot is one family in a Snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot returns a point-in-time copy of every used family, sorted by
// name, for JSON rendering and programmatic consumers (shmdash panels,
// tests). The same omission rule as WritePrometheus applies.
func (r *Registry) Snapshot() []FamilySnapshot {
	var out []FamilySnapshot
	for _, f := range r.sortedFamilies() {
		series := f.sortedSeries()
		if len(series) == 0 {
			continue
		}
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, s := range series {
			ss := SeriesSnapshot{}
			if len(f.labelNames) > 0 {
				ss.Labels = make(map[string]string, len(f.labelNames))
				for i, n := range f.labelNames {
					ss.Labels[n] = s.labelValues[i]
				}
			}
			if f.kind == KindHistogram {
				cum := uint64(0)
				for i, ub := range f.upperBounds {
					cum += s.buckets[i].Load()
					ss.Buckets = append(ss.Buckets, BucketSnapshot{UpperBound: ub, Count: cum})
				}
				ss.Sum = s.sum.Load()
				ss.Count = s.count.Load()
			} else {
				ss.Value = s.value.Load()
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// WriteJSON renders the Snapshot as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Families returns the number of families that would render (≥ 1 series).
func (r *Registry) Families() int {
	n := 0
	for _, f := range r.sortedFamilies() {
		f.mu.RLock()
		if len(f.series) > 0 {
			n++
		}
		f.mu.RUnlock()
	}
	return n
}
