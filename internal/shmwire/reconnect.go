package shmwire

import (
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
	Dial func(addr, name string) (*Client, error)
	// Sleep overrides the backoff sleep (tests run instantly).
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
	if cfg.Backoff == (faultinject.Backoff{}) {
		cfg.Backoff = faultinject.ReconnectBackoff()
	}
	if cfg.Dial == nil {
		cfg.Dial = Dial
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &ReconnectingClient{cfg: cfg}
}

// Reconnects counts completed re-dials (the first dial is not counted).
func (rc *ReconnectingClient) Reconnects() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.reconnects
}

// Connect ensures a live session, dialing with backoff if needed.
func (rc *ReconnectingClient) Connect() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.connectLocked()
}

func (rc *ReconnectingClient) connectLocked() error {
	if rc.closed {
		return ErrClientClosed
	}
	if rc.cl != nil {
		return nil
	}
	var lastErr error
	for attempt := 0; attempt < rc.cfg.Backoff.MaxAttempts; attempt++ {
		if attempt > 0 {
			telemetry.RecordFlight("shmwire", "backoff",
				fmt.Sprintf("%s redial attempt %d/%d", rc.cfg.Name, attempt+1, rc.cfg.Backoff.MaxAttempts))
			rc.cfg.Sleep(rc.cfg.Backoff.Delay(attempt - 1))
		}
		cl, err := rc.cfg.Dial(rc.cfg.Addr, rc.cfg.Name)
		if err == nil {
			rc.cl = cl
			return nil
		}
		lastErr = err
		rc.cfg.Logf("shmwire: dial %s attempt %d/%d: %v",
			rc.cfg.Addr, attempt+1, rc.cfg.Backoff.MaxAttempts, err)
	}
	return fmt.Errorf("shmwire: reconnect budget exhausted: %w", lastErr)
}

// Next returns the next event. A broken or stalled stream is redialed
// transparently (counted in Reconnects); Next fails only when the redial
// budget is exhausted or the client is closed.
func (rc *ReconnectingClient) Next() (Event, error) {
	for {
		rc.mu.Lock()
		if err := rc.connectLocked(); err != nil {
			rc.mu.Unlock()
			return Event{}, err
		}
		cl := rc.cl
		rc.mu.Unlock()

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
// next Connect/Next to redial from a fresh backoff schedule. Load tests
// use it to exercise the reconnect path on demand.
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

// Close tears the session down; subsequent Next calls fail fast.
func (rc *ReconnectingClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return nil
	}
	rc.closed = true
	if rc.cl != nil {
		err := rc.cl.Close()
		rc.cl = nil
		return err
	}
	return nil
}
