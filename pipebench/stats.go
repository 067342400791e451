package main

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// minP90Samples is the smallest sample count whose p90 has at least ten
// samples beyond it.
const minP90Samples = 100

// errFewSamples refuses a percentile that too few samples lie beyond.
var errFewSamples = errors.New("too few samples for the percentile")

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 is the 90th percentile, refused below minP90Samples samples.
func p90(xs []float64) (float64, error) {
	if len(xs) < minP90Samples {
		return 0, fmt.Errorf("p90 over %d samples (need %d): %w", len(xs), minP90Samples, errFewSamples)
	}
	return quantile(xs, 0.9), nil
}

// span is one timed interval of the benchmark's own call into a layer.
// Spans of one op share its op number; parent is the index of the
// enclosing span in the tracer's list, -1 for an op's root.
type span struct {
	op         int
	parent     int
	name       string
	start, end time.Duration
}

// tracer keeps spans in memory, relative to its creation time. Only the
// main goroutine touches it; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, start: now, end: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// record adds an already-measured span.
func (t *tracer) record(op, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{op: op, parent: parent, name: name,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
}

// selfTimes returns every span's duration minus the part of it that its
// children cover; overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := spans[c].start, spans[c].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		out[i] = s.end - s.start - unionLength(ivs)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// deliveredReadings counts the readings of one op that reached every
// subscriber: the smallest per-subscriber telemetry count. Counting at the
// subscribers, not at the publisher, is what makes an eviction or a lost frame
// show as delivered_ratio < 1.
func deliveredReadings(received []int) int {
	if len(received) == 0 {
		return 0
	}
	least := received[0]
	for _, n := range received[1:] {
		if n < least {
			least = n
		}
	}
	return least
}
