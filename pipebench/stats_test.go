package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"ecocapsule/internal/shmwire"
)

func TestP90RefusedBelow100Samples(t *testing.T) {
	xs := make([]float64, minP90Samples-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := p90(xs); !errors.Is(err, errFewSamples) {
		t.Fatalf("p90 over %d samples: err %v, want errFewSamples", len(xs), err)
	}
	xs = append(xs, float64(len(xs)))
	got, err := p90(xs)
	if err != nil {
		t.Fatalf("p90 over %d samples: %v", len(xs), err)
	}
	if want := 89.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("p90 of 0..99 = %g, want %g", got, want)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{parent: -1, name: "op", start: ms(0), end: ms(100)},
		{parent: 0, name: "a", start: ms(10), end: ms(40)},
		{parent: 0, name: "b", start: ms(30), end: ms(60)},  // overlaps a by 10 ms
		{parent: 0, name: "c", start: ms(90), end: ms(120)}, // runs past the parent's end
		{parent: 1, name: "a.child", start: ms(20), end: ms(25)},
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the op: 60 ms.
	if self[0] != ms(40) {
		t.Errorf("op self time %v, want 40ms", self[0])
	}
	if self[1] != ms(25) {
		t.Errorf("a self time %v, want 25ms", self[1])
	}
	if self[2] != ms(30) || self[4] != ms(5) {
		t.Errorf("leaf self times %v, %v; want 30ms, 5ms", self[2], self[4])
	}
}

func TestDeliveredReadingsIsTheLeastSubscriberCount(t *testing.T) {
	if got := deliveredReadings([]int{5, 4}); got != 4 {
		t.Errorf("delivered = %d, want 4 (the subscriber that missed a frame)", got)
	}
	if got := deliveredReadings(nil); got != 0 {
		t.Errorf("delivered with no subscribers = %d, want 0", got)
	}
}

// TestReadingsCountedAtSubscribers drives a real hub: what runOp counts as
// delivered is what each subscriber took off its socket, frame for frame.
func TestReadingsCountedAtSubscribers(t *testing.T) {
	h, err := newHub()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	frames := make([]shmwire.Telemetry, 3*chunk+5)
	for i := range frames {
		frames[i] = shmwire.Telemetry{Timestamp: simTime(0), CapsuleID: uint16(i), TemperatureC: float64(i)}
	}
	st := shmwire.Status{Timestamp: simTime(0), Expected: uint16(len(frames) + 1), Reporting: uint16(len(frames)),
		Degraded: true, MissingNodes: []uint16{0xffff}}
	ps, err := h.publish(frames, st, nil, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := h.await()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(recs))
	for i, r := range recs {
		counts[i] = r.frames
		if r.digest != ps.digest || !statusEqual(st, r.status) {
			t.Errorf("subscriber %d saw different frames or Status than were sent", i)
		}
		if r.bytes != ps.bytes {
			t.Errorf("subscriber %d counted %d bytes, publisher %d", i, r.bytes, ps.bytes)
		}
	}
	if got := deliveredReadings(counts); got != len(frames) {
		t.Errorf("delivered %d readings, sent %d", got, len(frames))
	}
	if h.evictions() != 0 {
		t.Errorf("%d evictions", h.evictions())
	}
}
