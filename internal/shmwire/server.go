package shmwire

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"ecocapsule/internal/telemetry"
)

// Server streams SHM telemetry to every connected subscriber. A Source
// callback supplies the frames; the server fans them out, dropping slow
// subscribers rather than blocking the feed (monitoring data is perishable).
type Server struct {
	mu sync.Mutex
	ln net.Listener
	//ecolint:guardedby mu
	subs map[int]*subscriber
	//ecolint:guardedby mu
	nextSubID int
	//ecolint:guardedby mu
	closed bool
	//ecolint:guardedby mu
	// conns holds every accepted connection until its handler returns,
	// including those still waiting for their Hello, so Close can end
	// them all.
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
	logf  func(format string, args ...any)
	//ecolint:guardedby mu
	// writeTimeout bounds each drained batch write (at most fanOutDepth
	// frames) so one wedged subscriber socket cannot pin its writer
	// goroutine forever.
	writeTimeout time.Duration
	//ecolint:guardedby mu
	// lastStatus is the last Status frame broadcast (nil before the first),
	// enqueued to every subscriber as it registers, so late joiners see the
	// fleet state without waiting for the next broadcast.
	lastStatus *outFrame
}

// defaultWriteTimeout bounds one subscriber batch write.
const defaultWriteTimeout = 5 * time.Second

// fanOutDepth is the per-subscriber frame queue: a subscriber further
// behind than this is evicted, and one writer batch drains at most this
// many frames.
const fanOutDepth = 256

type subscriber struct {
	id   int
	name string
	ch   chan outFrame
}

// outFrame is one queued frame. A Telemetry body travels inline in tel, so
// a telemetry broadcast allocates nothing; any other body is shared by
// every subscriber's queue.
type outFrame struct {
	t    MsgType
	body []byte
	tc   *TraceContext
	// inline is set when the body is tel rather than body.
	inline bool
	tel    [telemetrySize]byte
}

// payload returns the frame's body.
func (of *outFrame) payload() []byte {
	if of.inline {
		return of.tel[:]
	}
	return of.body
}

// NewServer listens on addr (e.g. "127.0.0.1:0").
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shmwire: listen: %w", err)
	}
	s := &Server{
		ln:           ln,
		subs:         make(map[int]*subscriber),
		conns:        make(map[net.Conn]struct{}),
		logf:         log.Printf,
		writeTimeout: defaultWriteTimeout,
	}
	s.wg.Add(1)
	// acceptLoop exits when Close shuts the listener; Close waits for it.
	go s.acceptLoop()
	return s, nil
}

// SetLogf overrides the server's logger (tests silence it).
func (s *Server) SetLogf(f func(string, ...any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f != nil {
		s.logf = f
	}
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	c := NewConn(conn)
	// The session must open with a Hello. A deadline that cannot be armed
	// means the socket is already unusable — bail instead of risking an
	// unbounded Recv on it.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		conn.Close()
		return
	}
	f, err := c.Recv()
	if err != nil || f.Type != MsgHello {
		conn.Close()
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		conn.Close()
		return
	}

	sub := &subscriber{
		name: string(f.Body),
		ch:   make(chan outFrame, fanOutDepth),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.nextSubID++
	sub.id = s.nextSubID
	s.subs[sub.id] = sub
	if s.lastStatus != nil {
		// The channel is freshly made and broadcasts hold s.mu, so this
		// enqueue into a fanOutDepth-slot buffer cannot block, and every
		// later Status reaches this subscriber after it, never before.
		sub.ch <- *s.lastStatus
	}
	mSubscribers.Set(float64(len(s.subs)))
	logf := s.logf
	s.mu.Unlock()
	logf("shmwire: subscriber %q connected from %s", sub.name, conn.RemoteAddr())

	// Reader-side watchdog: subscribers never speak after the Hello, so any
	// further Recv resolving — Bye, EOF, or a reset — means the peer is gone.
	// Without it, a disconnect between broadcasts lingers until the next
	// broadcast write notices the dead socket; a quiet server would pin the
	// map entry and writer goroutine indefinitely. The Conn keeps separate
	// read and write buffers, so this Recv is safe alongside the writer's
	// drain below.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			f, err := c.Recv()
			if err != nil || f.Type == MsgBye {
				break
			}
			// Anything else is outside the protocol; keep draining so a
			// chatty peer cannot wedge its own teardown.
		}
		telemetry.RecordFlight("shmwire", "subscriber_gone",
			fmt.Sprintf("subscriber %d (%s) hung up; reaping without a broadcast", sub.id, sub.name))
		// Closing the channel releases the writer below; closing the conn
		// unblocks any in-flight write.
		s.removeSub(sub.id)
		conn.Close()
	}()

	// Writer drains the fan-out channel onto the socket, one deadline per
	// batch: a subscriber that stops draining its socket times out and is
	// dropped instead of wedging this goroutine.
	arm := func() {
		s.mu.Lock()
		wt := s.writeTimeout
		s.mu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(wt))
	}
	if err := drain(c, sub.ch, arm); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			mWriteDeadlineHits.Inc()
			telemetry.RecordFlight("shmwire", "write_timeout",
				fmt.Sprintf("subscriber %d (%s) batch write timed out", sub.id, sub.name))
		}
	}
	s.removeSub(sub.id)
	conn.Close()
}

// drain writes the frames queued on ch to c until ch is closed or a write
// fails. It blocks for one frame, buffers the frames already queued behind
// it (at most cap(ch) per batch), and flushes once the queue is momentarily
// empty, so a burst costs one write per bufio buffer instead of one per
// frame. arm runs before each batch. Frames queued before ch was closed
// are still flushed. The frames are counted in a local tally that each
// flush publishes first, so the metric moves once per type per flush
// rather than once per frame; frames buffered when a write fails are
// published on return, counted as written to the buffer.
//
//ecolint:hotpath every frame is built in the Conn's write buffer
func drain(c *Conn, ch <-chan outFrame, arm func()) error {
	tally := frameTally{to: mFramesWritten}
	defer tally.publish()
	for of := range ch {
		arm()
		err := writeFrame(c.w, &tally, of.t, of.payload(), of.tc)
	batch:
		for n := 1; err == nil && n < cap(ch); n++ {
			select {
			case next, ok := <-ch:
				if !ok {
					break batch
				}
				err = writeFrame(c.w, &tally, next.t, next.payload(), next.tc)
			default:
				break batch
			}
		}
		if err == nil {
			err = flushFrames(c.w, &tally)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) removeSub(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub, ok := s.subs[id]; ok {
		delete(s.subs, id)
		close(sub.ch)
		mSubscribers.Set(float64(len(s.subs)))
	}
}

// Subscribers returns the current subscriber count.
func (s *Server) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Broadcast fans one frame out to every subscriber. Slow subscribers whose
// buffers are full are disconnected (the frame is dropped for them).
func (s *Server) Broadcast(t MsgType, body []byte) {
	s.BroadcastTraced(t, body, nil)
}

// BroadcastTraced fans one frame out to every subscriber with an optional
// trace context, so a receipt span on the far side can join the
// originating trace. A Status frame is also kept, under the same lock as
// the fan-out, as the one replayed to each subscriber that joins later. An
// eviction is an incident: the flight recorder is dumped so the events
// leading up to the overflow survive it. A frame that could never be
// written (oversize body, reserved type bit) is rejected here, counted and
// flight-recorded, instead of reaching the writers, where it would cost
// every subscriber its connection.
func (s *Server) BroadcastTraced(t MsgType, body []byte, tc *TraceContext) {
	if _, err := frameLength(t, body, tc); err != nil {
		mBroadcastRejected.Inc()
		telemetry.RecordFlight("shmwire", "broadcast_rejected",
			fmt.Sprintf("%v frame with a %d-byte body: %v", t, len(body), err))
		return
	}
	s.fanOut(outFrame{t: t, body: body, tc: tc})
}

// BroadcastTelemetry fans one telemetry sample out, its body encoded
// inline in the queued frame.
//
//ecolint:hotpath the body rides inline in the queued frame
func (s *Server) BroadcastTelemetry(t Telemetry) {
	s.fanOut(outFrame{t: MsgTelemetry, inline: true, tel: encodeTelemetry(t)})
}

// fanOut queues of on every subscriber's channel, evicting the
// subscribers whose queue is full.
//
//ecolint:hotpath one frame copy per subscriber queue
func (s *Server) fanOut(of outFrame) {
	mBroadcasts.inc(of.t)
	s.mu.Lock()
	if of.t == MsgStatus {
		// Copied inside the branch so of itself stays on the stack for
		// every other frame type.
		st := of
		s.lastStatus = &st
	}
	var evict []int
	for id, sub := range s.subs {
		select {
		case sub.ch <- of:
		default:
			evict = append(evict, id)
		}
	}
	logf := s.logf
	s.mu.Unlock()
	if len(evict) > 0 {
		//ecolint:ignore hotalloc an eviction is an incident that dumps the flight recorder
		s.evict(evict, logf)
	}
}

// evict disconnects the subscribers that overflowed their fan-out buffer.
// An eviction is an incident: the flight recorder is dumped so the events
// leading up to the overflow survive it.
func (s *Server) evict(ids []int, logf func(string, ...any)) {
	for _, id := range ids {
		logf("shmwire: evicting slow subscriber %d", id)
		mEvictions.Inc()
		telemetry.RecordFlight("shmwire", "evict",
			fmt.Sprintf("subscriber %d overflowed its fan-out buffer", id))
		s.removeSub(id)
		telemetry.Flight().Dump("shmwire: subscriber evicted")
	}
}

// BroadcastHealth is a convenience wrapper.
func (s *Server) BroadcastHealth(h Health) {
	s.Broadcast(MsgHealth, EncodeHealth(h))
}

// BroadcastAlert is a convenience wrapper.
func (s *Server) BroadcastAlert(a Alert) {
	s.Broadcast(MsgAlert, EncodeAlert(a))
}

// BroadcastStatus is a convenience wrapper.
func (s *Server) BroadcastStatus(st Status) {
	s.Broadcast(MsgStatus, EncodeStatus(st))
}

// BroadcastStatusTraced broadcasts a status frame carrying a trace context.
func (s *Server) BroadcastStatusTraced(st Status, tc *TraceContext) {
	s.BroadcastTraced(MsgStatus, EncodeStatus(st), tc)
}

// Close shuts the listener and every connection down, subscribers and
// peers still in the handshake alike, and waits for the handler
// goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	ids := make([]int, 0, len(s.subs))
	for id := range s.subs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.removeSub(id)
	}
	s.wg.Wait()
	return err
}

// Client subscribes to a server and decodes its stream.
type Client struct {
	conn net.Conn
	c    *Conn
	// tel holds the last Telemetry event's sample.
	tel Telemetry
}

// Dial connects and sends the Hello.
func Dial(addr, name string) (*Client, error) {
	return dialContext(context.Background(), addr, name)
}

// dialContext is Dial with a dial that ctx can cancel.
func dialContext(ctx context.Context, addr, name string) (*Client, error) {
	conn, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shmwire: dial: %w", err)
	}
	cl := &Client{conn: conn, c: NewConn(conn)}
	if err := cl.c.Hello(name); err != nil {
		conn.Close()
		return nil, err
	}
	return cl, nil
}

// Event is one decoded server message. Trace carries the sender's trace
// context when the frame was traced. Telemetry and Trace point at fields
// the Client owns: they are valid until the next Next.
type Event struct {
	Type      MsgType
	Telemetry *Telemetry
	Health    *Health
	Alert     *Alert
	Status    *Status
	Trace     *TraceContext
}

// Next blocks for the next event. io.EOF-wrapped errors mean the stream
// ended.
//
//ecolint:hotpath a Telemetry event decodes into the Client's own field
func (cl *Client) Next() (Event, error) {
	f, err := cl.c.Recv()
	if err != nil {
		return Event{}, err
	}
	ev := Event{Type: f.Type, Trace: f.Trace}
	switch f.Type {
	case MsgTelemetry:
		if cl.tel, err = DecodeTelemetry(f.Body); err != nil {
			return Event{}, err
		}
		ev.Telemetry = &cl.tel
	case MsgHealth:
		h, err := DecodeHealth(f.Body)
		if err != nil {
			return Event{}, err
		}
		ev.Health = &h
	case MsgAlert:
		//ecolint:ignore hotalloc an alert carries its own message
		a, err := DecodeAlert(f.Body)
		if err != nil {
			return Event{}, err
		}
		ev.Alert = &a
	case MsgStatus:
		st, err := DecodeStatus(f.Body)
		if err != nil {
			return Event{}, err
		}
		ev.Status = &st
	case MsgBye:
	default:
		//ecolint:ignore hotalloc a frame outside the protocol ends the stream
		return Event{}, fmt.Errorf("shmwire: unexpected frame %v", f.Type)
	}
	return ev, nil
}

// SetDeadline bounds the next Recv.
func (cl *Client) SetDeadline(t time.Time) error { return cl.conn.SetReadDeadline(t) }

// Close terminates the subscription and publishes its read tally.
func (cl *Client) Close() error {
	err := cl.conn.Close()
	cl.c.reads.publish()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
