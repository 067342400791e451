package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestFlightRecorderRingEviction pins the bounded-ring contract: the last
// capacity events per subsystem survive, sequence numbers keep counting,
// and the render names the overwritten prefix.
func TestFlightRecorderRingEviction(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		fr.Record("reader", "crc_fail", fmt.Sprintf("attempt %d", i))
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want capacity 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	rendered := fr.Render()
	if !strings.Contains(rendered, "subsystem reader (10 recorded, 6 overwritten):") {
		t.Errorf("render missing overwrite accounting:\n%s", rendered)
	}
	if !strings.Contains(rendered, "#10 crc_fail attempt 10") {
		t.Errorf("render missing the newest event:\n%s", rendered)
	}
}

// TestFlightRecorderDeterministicOrder pins that rendering is independent
// of subsystem insertion order (subsystems sort, events keep seq order).
func TestFlightRecorderDeterministicOrder(t *testing.T) {
	build := func(order []string) string {
		fr := NewFlightRecorder(8)
		for _, sub := range order {
			fr.Record(sub, "evt", "x")
			fr.Record(sub, "evt", "y")
		}
		return fr.Render()
	}
	a := build([]string{"fleet", "shmwire", "reader"})
	b := build([]string{"shmwire", "reader", "fleet"})
	if a != b {
		t.Errorf("render depends on insertion order:\n--- a\n%s--- b\n%s", a, b)
	}
	idxFleet := strings.Index(a, "subsystem fleet")
	idxReader := strings.Index(a, "subsystem reader")
	idxWire := strings.Index(a, "subsystem shmwire")
	if !(idxFleet < idxReader && idxReader < idxWire) {
		t.Errorf("subsystems not sorted:\n%s", a)
	}
}

// TestFlightRecorderDump covers the incident-dump path: snapshot content
// and the LastDump bookkeeping the dashboard's /api/flightrecorder reports.
func TestFlightRecorderDump(t *testing.T) {
	fr := NewFlightRecorder(8)
	if _, _, dumps := fr.LastDump(); dumps != 0 {
		t.Errorf("fresh recorder reports %d dumps", dumps)
	}
	if !strings.Contains(fr.Render(), "no events") {
		t.Errorf("empty render = %q", fr.Render())
	}
	fr.Record("fleet", "reroute", "station 2 -> 1")
	got := fr.Dump("fleet: survey degraded")
	if !strings.Contains(got, "#1 reroute station 2 -> 1") {
		t.Errorf("dump missing event:\n%s", got)
	}
	reason, rendered, dumps := fr.LastDump()
	if reason != "fleet: survey degraded" || rendered != got || dumps != 1 {
		t.Errorf("LastDump = (%q, %d dumps)", reason, dumps)
	}
	// A later dump replaces the remembered one and counts.
	fr.Record("fleet", "reroute", "station 1 -> 0")
	second := fr.Dump("shmwire: subscriber evicted")
	if reason, rendered, dumps := fr.LastDump(); reason != "shmwire: subscriber evicted" || rendered != second || dumps != 2 {
		t.Errorf("second LastDump = (%q, %d dumps)", reason, dumps)
	}
}

// TestFlightRecorderConcurrent hammers one recorder from many goroutines
// under -race; afterwards every subsystem's ring must be internally
// consistent (ascending seq, correct totals).
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(16)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sub := fmt.Sprintf("sub%d", w%4)
			for i := 0; i < per; i++ {
				fr.Record(sub, "evt", "")
				if i%25 == 0 {
					fr.Dump("load")
				}
			}
		}(w)
	}
	wg.Wait()
	evs := fr.Events()
	last := map[string]uint64{}
	for _, ev := range evs {
		if ev.Seq <= last[ev.Subsystem] {
			t.Fatalf("non-ascending seq %d after %d in %s", ev.Seq, last[ev.Subsystem], ev.Subsystem)
		}
		last[ev.Subsystem] = ev.Seq
	}
	for sub, seq := range last {
		if want := uint64(workers / 4 * per); seq != want {
			t.Errorf("%s final seq %d, want %d", sub, seq, want)
		}
	}
}
