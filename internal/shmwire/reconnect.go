package shmwire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/telemetry"
)

// ReconnectConfig parameterises a self-healing subscription.
type ReconnectConfig struct {
	// Addr / Name mirror Dial.
	Addr string
	Name string
	// Backoff bounds the redial schedule (defaults to
	// faultinject.ReconnectBackoff).
	Backoff faultinject.Backoff
	// ReadTimeout bounds each Recv so a stalled server surfaces as an error
	// (and triggers a reconnect) instead of blocking forever. Zero disables.
	ReadTimeout time.Duration
	// Dial overrides the connection factory (tests inject failures here).
	// The default dial is cancelled by Close; an override is not.
	Dial func(addr, name string) (*Client, error)
	// Sleep overrides the backoff sleep (tests run instantly). The default
	// sleep ends early on Close; an override does not.
	Sleep func(time.Duration)
	// Logf receives reconnect diagnostics (default: silent).
	Logf func(format string, args ...any)
	// Tracer, when set, records one remote-parented "receipt" span per
	// traced event received, stitching the subscriber side under the
	// broadcaster's trace.
	Tracer *telemetry.Tracer
}

// ErrClientClosed is returned after Close.
var ErrClientClosed = errors.New("shmwire: reconnecting client closed")

// ReconnectingClient wraps Client with dial-retry and mid-stream
// reconnection under a bounded exponential backoff. A monitoring
// subscription should ride out a daemon restart, not die with it.
type ReconnectingClient struct {
	cfg ReconnectConfig
	// cancel is called by Close; it ends the default backoff sleep and
	// dial of a pending Next.
	cancel context.CancelFunc

	mu sync.Mutex
	//ecolint:guardedby mu
	cl *Client
	//ecolint:guardedby mu
	closed bool
	//ecolint:guardedby mu
	reconnects int
}

// NewReconnectingClient builds the client without dialing; the first Next
// (or Connect) establishes the session.
func NewReconnectingClient(cfg ReconnectConfig) *ReconnectingClient {
	ctx, cancel := context.WithCancel(context.Background())
	if cfg.Backoff == (faultinject.Backoff{}) {
		cfg.Backoff = faultinject.ReconnectBackoff()
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr, name string) (*Client, error) { return dialContext(ctx, addr, name) }
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &ReconnectingClient{cfg: cfg, cancel: cancel}
}

// Reconnects counts dropped sessions: each Bounce and each broken or
// stalled stream adds one as the session is dropped, before any redial,
// so a Bounce followed by Close counts 1.
func (rc *ReconnectingClient) Reconnects() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.reconnects
}

// Connect ensures a live session, dialing with backoff if needed.
func (rc *ReconnectingClient) Connect() error {
	_, err := rc.connect()
	return err
}

// connect returns the live session, dialing with backoff if there is
// none. rc.mu is never held across a backoff sleep or a dial, so Close
// and Bounce do not wait behind an outage.
func (rc *ReconnectingClient) connect() (*Client, error) {
	var lastErr error
	for attempt := 0; attempt < rc.cfg.Backoff.MaxAttempts; attempt++ {
		if attempt > 0 {
			telemetry.RecordFlight("shmwire", "backoff",
				fmt.Sprintf("%s redial attempt %d/%d", rc.cfg.Name, attempt+1, rc.cfg.Backoff.MaxAttempts))
			rc.cfg.Sleep(rc.cfg.Backoff.Delay(attempt - 1))
		}
		if cl, err := rc.session(); cl != nil || err != nil {
			return cl, err
		}
		cl, err := rc.cfg.Dial(rc.cfg.Addr, rc.cfg.Name)
		if err == nil {
			return rc.install(cl)
		}
		lastErr = err
		rc.cfg.Logf("shmwire: dial %s attempt %d/%d: %v",
			rc.cfg.Addr, attempt+1, rc.cfg.Backoff.MaxAttempts, err)
	}
	if cl, err := rc.session(); cl != nil || err != nil {
		return cl, err
	}
	return nil, fmt.Errorf("shmwire: reconnect budget exhausted: %w", lastErr)
}

// session returns the live session (nil if there is none), or
// ErrClientClosed.
func (rc *ReconnectingClient) session() (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil, ErrClientClosed
	}
	return rc.cl, nil
}

// install makes the freshly dialled cl the live session. A cl that lost
// the race, to Close or to a session another caller installed while it
// was dialling, is closed.
func (rc *ReconnectingClient) install(cl *Client) (*Client, error) {
	rc.mu.Lock()
	closed, live := rc.closed, rc.cl
	if !closed && live == nil {
		rc.cl = cl
	}
	rc.mu.Unlock()
	switch {
	case closed:
		cl.Close()
		return nil, ErrClientClosed
	case live != nil:
		cl.Close()
		return live, nil
	}
	return cl, nil
}

// Next returns the next event. A broken or stalled stream is redialed
// transparently (counted in Reconnects); Next fails only when the redial
// budget is exhausted or the client is closed.
func (rc *ReconnectingClient) Next() (Event, error) {
	for {
		cl, err := rc.connect()
		if err != nil {
			return Event{}, err
		}

		if rc.cfg.ReadTimeout > 0 {
			cl.SetDeadline(time.Now().Add(rc.cfg.ReadTimeout))
		}
		ev, err := cl.Next()
		if err == nil {
			if rc.cfg.Tracer != nil && ev.Trace != nil {
				rc.cfg.Tracer.StartRemote("receipt", telemetry.SpanContext{
					TraceID: ev.Trace.TraceID, SpanID: ev.Trace.SpanID,
				}).Attr("type", ev.Type.String()).
					Attr("logical_ts", ev.Trace.LogicalTS).
					End()
			}
			return ev, nil
		}

		rc.mu.Lock()
		if rc.closed {
			rc.mu.Unlock()
			return Event{}, ErrClientClosed
		}
		if rc.cl == cl { // nobody else replaced it
			rc.cl.Close()
			rc.cl = nil
			rc.reconnects++
			mReconnects.Inc()
		}
		rc.mu.Unlock()
		rc.cfg.Logf("shmwire: stream to %s broken (%v), reconnecting", rc.cfg.Addr, err)
	}
}

// Bounce drops the live session without closing the client, forcing the
// next Connect/Next to redial from a fresh backoff schedule. It counts in
// Reconnects; tests use it to exercise the reconnect path on demand.
func (rc *ReconnectingClient) Bounce() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed || rc.cl == nil {
		return
	}
	rc.cl.Close()
	rc.cl = nil
	rc.reconnects++
	mReconnects.Inc()
	telemetry.RecordFlight("shmwire", "reconnect",
		fmt.Sprintf("%s session bounced", rc.cfg.Name))
}

// Close tears the session down; subsequent Next calls fail fast, and a
// pending Next in the default backoff sleep or dial returns at once.
func (rc *ReconnectingClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil
	}
	rc.closed = true
	rc.cancel()
	if rc.cl != nil {
		err := rc.cl.Close()
		rc.cl = nil
		return err
	}
	return nil
}
