package shmwire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/telemetry"
)

func TestStatusRoundTrip(t *testing.T) {
	in := Status{
		Timestamp:    time.Unix(0, 1_700_000_000_000_000_000).UTC(),
		Expected:     12,
		Reporting:    9,
		Degraded:     true,
		MissingNodes: []uint16{0x81, 0x85, 0x8B},
	}
	out, err := DecodeStatus(EncodeStatus(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Expected != in.Expected || out.Reporting != in.Reporting || !out.Degraded {
		t.Errorf("round trip lost counts: %+v", out)
	}
	if len(out.MissingNodes) != 3 || out.MissingNodes[1] != 0x85 {
		t.Errorf("missing nodes: %v", out.MissingNodes)
	}
	if !out.Timestamp.Equal(in.Timestamp) {
		t.Errorf("timestamp %v != %v", out.Timestamp, in.Timestamp)
	}
}

func TestStatusDecodeRejectsShortBodies(t *testing.T) {
	full := EncodeStatus(Status{Expected: 5, MissingNodes: []uint16{1, 2}})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeStatus(full[:n]); err == nil {
			t.Fatalf("truncation to %d bytes must error", n)
		}
	}
}

func TestStatusEncodeTruncatesHugeMissingList(t *testing.T) {
	missing := make([]uint16, 3000)
	for i := range missing {
		missing[i] = uint16(i)
	}
	before := statusTruncatedCount()
	body := EncodeStatus(Status{MissingNodes: missing})
	if len(body) > MaxFrameSize {
		t.Fatalf("status body %d bytes exceeds MaxFrameSize", len(body))
	}
	dec, err := DecodeStatus(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.MissingNodes) != maxMissingNodes {
		t.Errorf("decoded %d missing nodes, want the %d cap", len(dec.MissingNodes), maxMissingNodes)
	}
	// Regression: the cut must not be silent — the frame carries a
	// truncation flag and the counter advances.
	if !dec.Truncated {
		t.Error("decoded status must carry the truncation flag")
	}
	if got := statusTruncatedCount(); got != before+1 {
		t.Errorf("status_truncated counter moved %v -> %v, want +1", before, got)
	}
}

func statusTruncatedCount() float64 { return mStatusTruncated.Value() }

// TestStatusTruncationFlagContract pins the flag semantics below and above
// the cap, including Degraded/Truncated sharing the flags byte.
func TestStatusTruncationFlagContract(t *testing.T) {
	before := statusTruncatedCount()
	dec, err := DecodeStatus(EncodeStatus(Status{
		Degraded:     true,
		MissingNodes: []uint16{1, 2, 3},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Truncated {
		t.Error("an uncut list must not set the truncation flag")
	}
	if !dec.Degraded {
		t.Error("degraded flag lost")
	}
	if got := statusTruncatedCount(); got != before {
		t.Errorf("counter moved %v -> %v on an uncut status", before, got)
	}
	// An explicitly pre-truncated status (e.g. re-broadcast of a decoded
	// frame) keeps its flag without re-counting.
	dec2, err := DecodeStatus(EncodeStatus(Status{Truncated: true, MissingNodes: []uint16{9}}))
	if err != nil {
		t.Fatal(err)
	}
	if !dec2.Truncated || dec2.Degraded {
		t.Errorf("flag round trip: %+v", dec2)
	}
	if got := statusTruncatedCount(); got != before {
		t.Errorf("counter moved on a pass-through truncated status")
	}
}

func waitForSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.Subscribers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached %d subscribers", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerBroadcastsStatus(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLogf(func(string, ...any) {})
	cl, err := Dial(s.Addr().String(), "status-test")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitForSubscribers(t, s, 1)
	s.BroadcastStatus(Status{Expected: 4, Reporting: 3, Degraded: true, MissingNodes: []uint16{0x82}})
	cl.SetDeadline(time.Now().Add(2 * time.Second))
	ev, err := cl.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != MsgStatus || ev.Status == nil {
		t.Fatalf("got event %+v, want status", ev)
	}
	if ev.Status.Reporting != 3 || !ev.Status.Degraded || len(ev.Status.MissingNodes) != 1 {
		t.Errorf("status payload %+v", ev.Status)
	}
}

// TestLateJoinerGetsLastStatus: a subscriber that joins after the Status
// broadcasts receives the last one first, with its trace context, and none
// of the earlier frames.
func TestLateJoinerGetsLastStatus(t *testing.T) {
	s := startServer(t)
	s.BroadcastStatusTraced(Status{Expected: 4, Reporting: 4}, &TraceContext{TraceID: 1, SpanID: 1, LogicalTS: 10})
	last := TraceContext{TraceID: 2, SpanID: 3, LogicalTS: 20}
	s.BroadcastStatusTraced(Status{Expected: 4, Reporting: 3, Degraded: true, MissingNodes: []uint16{0x82}}, &last)
	s.BroadcastTelemetry(Telemetry{CapsuleID: 7})
	cl, err := Dial(s.Addr().String(), "late")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetDeadline(time.Now().Add(3 * time.Second))
	ev, err := cl.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != MsgStatus || ev.Status == nil || ev.Trace == nil {
		t.Fatalf("first frame %+v, want the last traced Status", ev)
	}
	if *ev.Trace != last || ev.Status.Reporting != 3 || len(ev.Status.MissingNodes) != 1 {
		t.Errorf("replayed status %+v trace %+v, want Reporting 3 under %+v", ev.Status, ev.Trace, last)
	}
}

// TestJoinerBeforeAnyStatusGetsNone: with no Status broadcast yet, a new
// subscriber's first frame is the next live broadcast.
func TestJoinerBeforeAnyStatusGetsNone(t *testing.T) {
	s := startServer(t)
	s.BroadcastTelemetry(Telemetry{CapsuleID: 1})
	cl, err := Dial(s.Addr().String(), "early")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitSubscribers(t, s, 1)
	s.BroadcastTelemetry(Telemetry{CapsuleID: 2})
	cl.SetDeadline(time.Now().Add(3 * time.Second))
	ev, err := cl.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != MsgTelemetry || ev.Telemetry.CapsuleID != 2 {
		t.Fatalf("first frame %+v, want the live telemetry for capsule 2", ev)
	}
}

// TestJoinersDuringStatusStreamSeeIncreasingTS: subscribers that register
// while Status frames stream out never see one twice or out of order — the
// replayed Status and the live fan-out are decided under one lock.
func TestJoinersDuringStatusStreamSeeIncreasingTS(t *testing.T) {
	s := startServer(t)
	// Fewer broadcasts than fanOutDepth, so no subscriber can be evicted.
	const statuses, joinEvery = 200, 20
	// Each joiner reports its first ordering violation (or nil) here.
	results := make(chan error, statuses/joinEvery)
	for ts := uint64(1); ts <= statuses; ts++ {
		if ts%joinEvery == 0 {
			cl, err := Dial(s.Addr().String(), "joiner")
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			go func() {
				cl.SetDeadline(time.Now().Add(10 * time.Second))
				var prev uint64
				for prev < statuses {
					ev, err := cl.Next()
					if err != nil {
						results <- fmt.Errorf("after LogicalTS %d: %w", prev, err)
						return
					}
					if ev.Trace.LogicalTS <= prev {
						results <- fmt.Errorf("LogicalTS %d after %d", ev.Trace.LogicalTS, prev)
						return
					}
					prev = ev.Trace.LogicalTS
				}
				results <- nil
			}()
		}
		s.BroadcastStatusTraced(Status{Expected: 1, Reporting: 1}, &TraceContext{TraceID: 1, SpanID: uint32(ts), LogicalTS: ts})
	}
	for i := 0; i < cap(results); i++ {
		if err := <-results; err != nil {
			t.Error(err)
		}
	}
}

// TestReconnectingClientRidesOverServerRestart kills the server mid-stream
// and checks the client redials the replacement transparently.
func TestReconnectingClientRidesOverServerRestart(t *testing.T) {
	s1, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1.SetLogf(func(string, ...any) {})

	var mu sync.Mutex
	addr := s1.Addr().String()
	rc := NewReconnectingClient(ReconnectConfig{
		Addr:    "dynamic",
		Name:    "resilient-sub",
		Backoff: faultinject.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Factor: 2, MaxAttempts: 8},
		Sleep:   func(time.Duration) {},
		Dial: func(_, name string) (*Client, error) {
			mu.Lock()
			a := addr
			mu.Unlock()
			return Dial(a, name)
		},
	})
	defer rc.Close()

	if err := rc.Connect(); err != nil {
		t.Fatal(err)
	}
	waitForSubscribers(t, s1, 1)
	s1.BroadcastAlert(Alert{Code: AlertThreshold, Message: "before restart"})
	ev, err := rc.Next()
	if err != nil || ev.Type != MsgAlert {
		t.Fatalf("first event: %+v, %v", ev, err)
	}

	// Restart: s1 dies, s2 comes up on a fresh port.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.SetLogf(func(string, ...any) {})
	mu.Lock()
	addr = s2.Addr().String()
	mu.Unlock()

	// Pump frames on the new server until the client catches one.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s2.BroadcastAlert(Alert{Code: AlertAnomaly, Message: "after restart"})
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer close(done)

	ev, err = rc.Next()
	if err != nil {
		t.Fatalf("next after restart: %v", err)
	}
	if ev.Type != MsgAlert || ev.Alert == nil || ev.Alert.Message != "after restart" {
		t.Fatalf("event after restart: %+v", ev)
	}
	if rc.Reconnects() < 1 {
		t.Error("reconnect counter never advanced")
	}
}

// TestReconnectBackoffResetsAfterSuccess pins that a completed session
// resets the redial schedule: after a healthy stretch the next outage must
// start over at Delay(0), not continue climbing the exponential curve.
func TestReconnectBackoffResetsAfterSuccess(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLogf(func(string, ...any) {})

	var mu sync.Mutex
	var sleeps []time.Duration
	fails := 2 // dials to fail before the next success
	rc := NewReconnectingClient(ReconnectConfig{
		Addr:    s.Addr().String(),
		Name:    "backoff-reset",
		Backoff: faultinject.Backoff{Base: time.Millisecond, Max: 100 * time.Millisecond, Factor: 2, MaxAttempts: 6},
		Sleep: func(d time.Duration) {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
		},
		Dial: func(addr, name string) (*Client, error) {
			mu.Lock()
			if fails > 0 {
				fails--
				mu.Unlock()
				return nil, errors.New("synthetic dial failure")
			}
			mu.Unlock()
			return Dial(addr, name)
		},
	})
	defer rc.Close()

	// Session 1: two failed dials, then success and a delivered frame.
	if err := rc.Connect(); err != nil {
		t.Fatal(err)
	}
	waitForSubscribers(t, s, 1)
	s.BroadcastAlert(Alert{Code: AlertThreshold, Message: "healthy session"})
	if ev, err := rc.Next(); err != nil || ev.Type != MsgAlert {
		t.Fatalf("first session event: %+v, %v", ev, err)
	}

	// Outage after the healthy session: two more failed dials.
	mu.Lock()
	fails = 2
	mu.Unlock()
	rc.Bounce()

	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s.BroadcastAlert(Alert{Code: AlertAnomaly, Message: "after outage"})
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer close(done)
	if ev, err := rc.Next(); err != nil || ev.Type != MsgAlert {
		t.Fatalf("post-outage event: %+v, %v", ev, err)
	}

	mu.Lock()
	got := append([]time.Duration(nil), sleeps...)
	mu.Unlock()
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("recorded sleeps %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (schedule did not reset after success): %v", i, got[i], want[i], got)
		}
	}
	if rc.Reconnects() < 1 {
		t.Error("bounce must count as a reconnect")
	}
}

// TestServerEvictsSlowConsumer wedges a subscriber that never reads its
// socket and broadcasts past the bounded fan-out queue: the server must
// evict it (not block the feed), count the eviction and dump the flight
// recorder.
func TestServerEvictsSlowConsumer(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLogf(func(string, ...any) {})

	// A raw subscriber that Hellos and then never drains its socket.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := NewConn(conn).Hello("wedged"); err != nil {
		t.Fatal(err)
	}
	waitForSubscribers(t, s, 1)

	evictionsBefore := mEvictions.Value()
	// Big frames fill the kernel socket buffers, wedging the writer
	// goroutine; further broadcasts then overflow the 256-slot channel.
	body := EncodeAlert(Alert{Code: AlertAnomaly, Message: string(make([]byte, 512))})
	deadline := time.Now().Add(10 * time.Second)
	for s.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow subscriber never evicted")
		}
		s.Broadcast(MsgAlert, body)
	}
	if got := mEvictions.Value(); got != evictionsBefore+1 {
		t.Errorf("evictions counter moved %v -> %v, want +1", evictionsBefore, got)
	}
	reason, dump, _ := telemetry.Flight().LastDump()
	if reason != "shmwire: subscriber evicted" {
		t.Errorf("flight recorder dump reason %q, want the eviction incident", reason)
	}
	if !strings.Contains(dump, "evict") {
		t.Errorf("incident dump does not mention the eviction:\n%s", dump)
	}
	// The healthy feed must still work after the eviction.
	cl, err := Dial(s.Addr().String(), "healthy")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitForSubscribers(t, s, 1)
	s.BroadcastHealth(Health{Section: 'A', Level: 'A'})
	cl.SetDeadline(time.Now().Add(2 * time.Second))
	if ev, err := cl.Next(); err != nil || ev.Type != MsgHealth {
		t.Fatalf("post-eviction event: %+v, %v", ev, err)
	}
}

func TestReconnectingClientExhaustsBudget(t *testing.T) {
	dials := 0
	rc := NewReconnectingClient(ReconnectConfig{
		Addr:    "nowhere",
		Name:    "doomed",
		Backoff: faultinject.Backoff{Base: time.Millisecond, Max: time.Millisecond, Factor: 2, MaxAttempts: 3},
		Sleep:   func(time.Duration) {},
		Dial: func(_, _ string) (*Client, error) {
			dials++
			return nil, errors.New("synthetic dial failure")
		},
	})
	defer rc.Close()
	if _, err := rc.Next(); err == nil {
		t.Fatal("exhausted budget must surface an error")
	}
	if dials != 3 {
		t.Errorf("dialed %d times, want MaxAttempts=3", dials)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Next(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("next after close: %v", err)
	}
}

// TestReconnectingClientEventsStops: the event stream Next delivers stops
// at Close — a Next blocked waiting for the next frame returns
// ErrClientClosed instead of redialling.
func TestReconnectingClientEventsStops(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLogf(func(string, ...any) {})
	rc := NewReconnectingClient(ReconnectConfig{Addr: s.Addr().String(), Name: "ev"})
	if err := rc.Connect(); err != nil {
		t.Fatal(err)
	}
	waitForSubscribers(t, s, 1)
	s.BroadcastHealth(Health{Section: 'B', Level: 'A', Pedestrians: 2, SpeedMS: 1.2})
	if ev, err := rc.Next(); err != nil || ev.Type != MsgHealth {
		t.Fatalf("first event %+v, %v", ev, err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rc.Next()
		done <- err
	}()
	rc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("blocked Next after Close: %v, want ErrClientClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next never returned after Close")
	}
}
