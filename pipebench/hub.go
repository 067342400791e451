package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ecocapsule/internal/shmwire"
)

const (
	// subscribers is the number of in-process shmwire subscriber
	// connections every workload publishes to.
	subscribers = 2
	// window caps the frames the publisher leaves outstanding per subscriber:
	// half of the server's 256-frame fan-out buffer, so a full buffer (an
	// eviction) can only mean a bug, never load shedding.
	window = 128
	// chunk is the number of frames broadcast between two credit checks.
	chunk = window / 2
)

// errSubscriberGone reports a subscriber stream that ended mid-run (an
// eviction or a broken socket).
var errSubscriberGone = errors.New("shmwire subscriber stream ended")

// receipt is what one subscriber saw of one op: the telemetry frames in
// arrival order (as a count and an order-sensitive digest), the Status that
// closed the op, and when that Status arrived.
type receipt struct {
	frames int
	bytes  int
	digest uint64
	status shmwire.Status
	at     time.Time
}

// sub is one in-process subscriber connection.
type sub struct {
	cl *shmwire.Client
	// received counts frames taken off the socket over the whole run; the
	// publisher's credit check reads it.
	received atomic.Int64
	receipts chan receipt
	err      error // set before done is closed
	done     chan struct{}
}

// hub is the shmwire side of a workload: one server and its subscribers.
type hub struct {
	srv  *shmwire.Server
	subs []*sub
	// notify wakes the publisher when a subscriber took a frame.
	notify chan struct{}
	// sent counts frames broadcast over the whole run.
	sent int64
	wg   sync.WaitGroup
}

// newHub starts a loopback server and dials the subscribers, returning once
// the server has registered all of them.
func newHub() (*hub, error) {
	srv, err := shmwire.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.SetLogf(func(string, ...any) {})
	h := &hub{srv: srv, notify: make(chan struct{}, 1)}
	for i := 0; i < subscribers; i++ {
		cl, err := shmwire.Dial(srv.Addr().String(), fmt.Sprintf("pipebench-%d", i))
		if err != nil {
			h.close()
			return nil, err
		}
		s := &sub{cl: cl, receipts: make(chan receipt, 1), done: make(chan struct{})}
		h.subs = append(h.subs, s)
		h.wg.Add(1)
		go h.consume(s)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Subscribers() < subscribers; {
		if time.Now().After(deadline) {
			h.close()
			return nil, fmt.Errorf("only %d/%d subscribers registered", srv.Subscribers(), subscribers)
		}
		time.Sleep(time.Millisecond)
	}
	return h, nil
}

// consume is one subscriber's receive loop. It ends when the stream does.
func (h *hub) consume(s *sub) {
	defer h.wg.Done()
	defer h.wake() // a publisher waiting for credit must see done
	defer close(s.done)
	var cur receipt
	cur.digest = digestSeed
	for {
		ev, err := s.cl.Next()
		if err != nil {
			s.err = err
			return
		}
		switch ev.Type {
		case shmwire.MsgTelemetry:
			cur.frames++
			cur.bytes += frameHeader + telemetryBody
			cur.digest = digestTelemetry(cur.digest, *ev.Telemetry)
		case shmwire.MsgStatus:
			cur.bytes += frameHeader + statusBody(*ev.Status)
			cur.status = *ev.Status
			cur.at = time.Now()
			s.receipts <- cur
			cur = receipt{digest: digestSeed}
		default:
			s.err = fmt.Errorf("unexpected %v frame", ev.Type)
			return
		}
		s.received.Add(1)
		h.wake()
	}
}

// wake tells the publisher a subscriber made progress (or ended).
func (h *hub) wake() {
	select {
	case h.notify <- struct{}{}:
	default:
	}
}

// Wire sizes of the frames the benchmark sends.
const (
	frameHeader   = 6
	telemetryBody = 42
)

// statusBody is the encoded size of a Status body.
func statusBody(st shmwire.Status) int { return 15 + 2*len(st.MissingNodes) }

// credit blocks until n more frames fit in every subscriber's window.
func (h *hub) credit(n int) error {
	for {
		least := int64(math.MaxInt64)
		for _, s := range h.subs {
			select {
			case <-s.done:
				return fmt.Errorf("%w: %v", errSubscriberGone, s.err)
			default:
			}
			if r := s.received.Load(); r < least {
				least = r
			}
		}
		if h.sent+int64(n)-least <= window {
			return nil
		}
		<-h.notify
	}
}

// publishStats is the publisher's own account of one publish.
type publishStats struct {
	frames, bytes int
	digest        uint64
	// lastSend is when the final broadcast call returned.
	lastSend time.Time
}

// publish broadcasts one Telemetry frame per reading, then the Status, in
// chunks that never overrun a subscriber's window. It records a
// shmwire.broadcast span per chunk and a shmwire.backpressure span per
// credit wait.
func (h *hub) publish(frames []shmwire.Telemetry, st shmwire.Status, tr *tracer, op, parent int) (publishStats, error) {
	ps := publishStats{digest: digestSeed}
	for i := 0; i <= len(frames); {
		n := chunk
		if rest := len(frames) - i; rest < n {
			n = rest
		}
		last := i+n == len(frames)
		want := n
		if last {
			want++ // the Status frame
		}
		if err := h.waitCredit(want, tr, op, parent); err != nil {
			return ps, err
		}
		b := tr.begin(op, parent, "shmwire.broadcast")
		for _, f := range frames[i : i+n] {
			h.srv.BroadcastTelemetry(f)
			ps.digest = digestTelemetry(ps.digest, f)
		}
		ps.frames += n
		ps.bytes += n * (frameHeader + telemetryBody)
		if last {
			h.srv.BroadcastStatus(st)
			ps.frames++
			ps.bytes += frameHeader + statusBody(st)
		}
		ps.lastSend = time.Now()
		tr.end(b)
		h.sent += int64(want)
		i += n
		if last {
			break
		}
	}
	return ps, nil
}

// waitCredit is credit wrapped in a backpressure span when it has to wait.
func (h *hub) waitCredit(n int, tr *tracer, op, parent int) error {
	start := time.Now()
	err := h.credit(n)
	if tr != nil {
		if end := time.Now(); end.Sub(start) > 10*time.Microsecond {
			tr.record(op, parent, "shmwire.backpressure", start, end)
		}
	}
	return err
}

// await collects every subscriber's receipt of the op's Status.
func (h *hub) await() ([]receipt, error) {
	out := make([]receipt, len(h.subs))
	for i, s := range h.subs {
		select {
		case out[i] = <-s.receipts:
		case <-s.done:
			return nil, fmt.Errorf("%w: %v", errSubscriberGone, s.err)
		}
	}
	return out, nil
}

// evictions is the number of subscribers the server dropped.
func (h *hub) evictions() int { return subscribers - h.srv.Subscribers() }

// close shuts the server and subscribers down and waits for every
// goroutine the hub started.
func (h *hub) close() {
	for _, s := range h.subs {
		s.cl.Close()
	}
	h.srv.Close()
	h.wg.Wait()
}

// digestSeed starts an order-sensitive FNV-1a digest of a frame sequence.
const digestSeed uint64 = 14695981039346656037

func mix(d, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		d ^= v & 0xff
		d *= 1099511628211
		v >>= 8
	}
	return d
}

// digestTelemetry folds one frame's every field into the digest.
func digestTelemetry(d uint64, t shmwire.Telemetry) uint64 {
	d = mix(d, uint64(t.Timestamp.UnixNano()))
	d = mix(d, uint64(t.CapsuleID))
	d = mix(d, math.Float64bits(t.Acceleration))
	d = mix(d, math.Float64bits(t.StressMPa))
	d = mix(d, math.Float64bits(t.TemperatureC))
	return mix(d, math.Float64bits(t.Humidity))
}
