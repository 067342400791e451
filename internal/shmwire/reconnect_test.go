package shmwire

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ecocapsule/internal/faultinject"
)

// bouncesAfter reports whether client id drops its session after the
// round stamped ts (rounds are stamped 1..rounds): every bounceEvery
// rounds, staggered by id, and never after the last round.
func bouncesAfter(id int, ts uint64, rounds, bounceEvery int) bool {
	return ts < uint64(rounds) && (int(ts)+id)%bounceEvery == 0
}

// TestReconnectingClientsResyncDeterministic drives 50 ReconnectingClients
// through 40 lock-step rounds of traced Status broadcasts (LogicalTS =
// round), bouncing each client's session on a fixed staggered schedule.
// Every client must see every round live exactly once and in order, and
// exactly one snapshot replay (LogicalTS <= last seen) after each bounce,
// so its Reconnects and resync counts equal the schedule's closed-form
// bounce count. The server must hold N subscribers after the last round
// and none once the clients close, and the goroutine count must return to
// its pre-server baseline after srv.Close. Every wait has a deadline.
func TestReconnectingClientsResyncDeterministic(t *testing.T) {
	const (
		clients     = 50
		rounds      = 40
		bounceEvery = 12
		wait        = 10 * time.Second
	)
	wantBounces := make([]int, clients)
	total := 0
	for id := range wantBounces {
		for ts := uint64(1); ts <= rounds; ts++ {
			if bouncesAfter(id, ts, rounds, bounceEvery) {
				wantBounces[id]++
			}
		}
		total += wantBounces[id]
	}
	if total != 162 {
		t.Fatalf("schedule bounces %d sessions in total, want 162", total)
	}

	baseline := runtime.NumGoroutine()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetLogf(silent)
	addr := srv.Addr().String()

	rcs := make([]*ReconnectingClient, clients)
	resyncs := make([]int, clients)
	// Each client sends nil for every round it completes, then the error
	// that ended its stream. Two slots per client: neither send blocks,
	// even when the test stops reading mid-round.
	events := make(chan error, 2*clients)
	// closeAll closes every client, then the server, which ends every
	// client goroutine; it runs once, on success or after a failed wait.
	var teardown sync.Once
	closeAll := func() {
		teardown.Do(func() {
			for _, rc := range rcs {
				rc.Close()
			}
			srv.Close()
		})
	}
	defer closeAll()

	for id := range rcs {
		rcs[id] = NewReconnectingClient(ReconnectConfig{
			Addr:    addr,
			Name:    fmt.Sprintf("sub-%02d", id),
			Backoff: faultinject.Backoff{Base: time.Millisecond, Max: time.Millisecond, Factor: 1, MaxAttempts: 4},
			Sleep:   func(time.Duration) {},
		})
		go func(id int, rc *ReconnectingClient) {
			err := runSubscriber(id, rc, rounds, bounceEvery, &resyncs[id], events)
			events <- fmt.Errorf("client %d: %w", id, err)
		}(id, rcs[id])
	}
	waitSubscribers(t, srv, clients)

	for ts := uint64(1); ts <= rounds; ts++ {
		srv.BroadcastStatusTraced(
			Status{Timestamp: time.Unix(int64(ts), 0).UTC(), Expected: clients, Reporting: clients},
			&TraceContext{TraceID: 0x5e55, SpanID: uint32(ts), LogicalTS: ts})
		// Barrier: a client reports a round only after it has seen it
		// live and, if it bounced, re-registered and seen the replay, so
		// no client can miss the next broadcast.
		timeout := time.After(wait)
		for n := 0; n < clients; n++ {
			select {
			case err := <-events:
				if err != nil {
					t.Fatalf("round %d: %v", ts, err)
				}
			case <-timeout:
				t.Fatalf("round %d: only %d/%d clients reported before the deadline", ts, n, clients)
			}
		}
	}
	// Dropped sessions are reaped asynchronously; the live ones remain.
	waitSubscribers(t, srv, clients)
	for _, rc := range rcs {
		rc.Close()
	}
	waitSubscribers(t, srv, 0)
	closeAll()
	timeout := time.After(wait)
	for n := 0; n < clients; n++ {
		select {
		case err := <-events:
			if !errors.Is(err, ErrClientClosed) {
				t.Errorf("after Close: %v", err)
			}
		case <-timeout:
			t.Fatalf("only %d/%d client goroutines ended after Close", n, clients)
		}
	}

	for id, rc := range rcs {
		if got := rc.Reconnects(); got != wantBounces[id] {
			t.Errorf("client %d: Reconnects() = %d, want %d", id, got, wantBounces[id])
		}
		if resyncs[id] != wantBounces[id] {
			t.Errorf("client %d: %d resyncs, want %d", id, resyncs[id], wantBounces[id])
		}
	}
	for deadline := time.Now().Add(wait); runtime.NumGoroutine() > baseline; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after teardown, baseline %d", runtime.NumGoroutine(), baseline)
		}
	}
}

// runSubscriber consumes one client's stream for the session test: it
// requires round ts to arrive as LogicalTS = last + 1, bounces on the
// schedule and then requires exactly one replay, and reports each round
// on done as nil. It returns the error that ended the stream, which is
// ErrClientClosed when the test tears down a healthy client.
func runSubscriber(id int, rc *ReconnectingClient, rounds, bounceEvery int, resyncs *int, done chan<- error) error {
	if err := rc.Connect(); err != nil {
		return err
	}
	var last uint64
	for {
		ts, err := nextStatusTS(rc)
		if err != nil {
			return err
		}
		if ts != last+1 {
			return fmt.Errorf("saw LogicalTS %d after %d, want %d", ts, last, last+1)
		}
		last = ts
		if bouncesAfter(id, ts, rounds, bounceEvery) {
			rc.Bounce()
			if err := rc.Connect(); err != nil {
				return err
			}
			replay, err := nextStatusTS(rc)
			if err != nil {
				return err
			}
			if replay > last {
				return fmt.Errorf("after a bounce at %d the first Status is live (%d), not a replay", last, replay)
			}
			*resyncs++
		}
		done <- nil
	}
}

// nextStatusTS returns the LogicalTS of the next event, which must be a
// traced Status.
func nextStatusTS(rc *ReconnectingClient) (uint64, error) {
	ev, err := rc.Next()
	if err != nil {
		return 0, err
	}
	if ev.Type != MsgStatus || ev.Trace == nil {
		return 0, fmt.Errorf("got %v (trace %v), want a traced Status", ev.Type, ev.Trace)
	}
	return ev.Trace.LogicalTS, nil
}

// TestReconnectingClientCloseDuringOutage pins that Close does not wait
// behind the redial budget and ends a pending Next's backoff: with every
// dial failing at once and 2 s default backoff sleeps, Close right after
// the first failed dial returns at once, and the pending Next reports
// ErrClientClosed within 100 ms, not an exhausted budget after the sleeps.
func TestReconnectingClientCloseDuringOutage(t *testing.T) {
	// One slot per dial attempt, so a failing Dial never blocks.
	dialed := make(chan struct{}, 3)
	rc := NewReconnectingClient(ReconnectConfig{
		Addr:    "black-hole",
		Name:    "outage",
		Backoff: faultinject.Backoff{Base: 2 * time.Second, Max: 2 * time.Second, Factor: 1, MaxAttempts: 3},
		Dial: func(_, _ string) (*Client, error) {
			dialed <- struct{}{}
			return nil, errors.New("synthetic dial failure")
		},
	})
	next := make(chan error, 1)
	go func() {
		_, err := rc.Next()
		next <- err
	}()
	select {
	case <-dialed:
	case <-time.After(2 * time.Second):
		t.Fatal("Next never dialled")
	}

	start := time.Now()
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Close took %v behind the redial budget, want < 100ms", d)
	}
	var err error
	select {
	case err = <-next:
	case <-time.After(100 * time.Millisecond):
		t.Error("pending Next still backing off 100ms after Close")
		err = <-next
	}
	if !errors.Is(err, ErrClientClosed) {
		t.Errorf("pending Next after Close: %v, want ErrClientClosed", err)
	}
}

// TestReconnectsCountsDroppedSessions pins what Reconnects counts: a
// dropped session, at the moment it is dropped, so a Bounce followed by
// Close, with no redial in between, counts 1.
func TestReconnectsCountsDroppedSessions(t *testing.T) {
	s := startServer(t)
	rc := NewReconnectingClient(ReconnectConfig{Addr: s.Addr().String(), Name: "bounced"})
	if err := rc.Connect(); err != nil {
		t.Fatal(err)
	}
	rc.Bounce()
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rc.Reconnects(); got != 1 {
		t.Errorf("Reconnects() = %d after a bounce and Close, want 1", got)
	}
}
