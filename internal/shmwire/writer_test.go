package shmwire

import (
	"bytes"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// countingRW records every Write the Conn's buffer hands down.
type countingRW struct {
	bytes.Buffer
	writes int
}

func (c *countingRW) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// mixedFrames builds n frames cycling through plain Telemetry, traced
// Telemetry and a traced Status with a missing-node list.
func mixedFrames(n int) []outFrame {
	out := make([]outFrame, n)
	for i := range out {
		tel := EncodeTelemetry(Telemetry{Timestamp: time.Unix(int64(i), 0).UTC(), CapsuleID: uint16(i)})
		tc := &TraceContext{TraceID: uint64(i) + 1, SpanID: uint32(i), LogicalTS: uint64(i) * 1000}
		switch i % 3 {
		case 0:
			out[i] = outFrame{t: MsgTelemetry, body: tel}
		case 1:
			out[i] = outFrame{t: MsgTelemetry, body: tel, tc: tc}
		default:
			st := Status{Expected: 10, Reporting: 7, Degraded: true, MissingNodes: []uint16{uint16(i), 3, 9}}
			out[i] = outFrame{t: MsgStatus, body: EncodeStatus(st), tc: tc}
		}
	}
	return out
}

func telemetryFrames(n int) []outFrame {
	out := make([]outFrame, n)
	for i := range out {
		out[i] = outFrame{t: MsgTelemetry, body: EncodeTelemetry(Telemetry{CapsuleID: uint16(i)})}
	}
	return out
}

// sequential is the pre-batching wire image: one SendTraced per frame.
func sequential(t *testing.T, frames []outFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(&buf)
	for _, of := range frames {
		if err := c.SendTraced(of.t, of.body, of.tc); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// queued returns a closed fan-out channel holding frames.
func queued(frames []outFrame) chan outFrame {
	ch := make(chan outFrame, fanOutDepth)
	for _, of := range frames {
		ch <- of
	}
	close(ch)
	return ch
}

// TestDrainCoalescesWrites pins the batched writer: a full queue of frames
// reaches the socket in about one Write per bufio buffer — ⌈N·48/4096⌉+1
// for 48-byte Telemetry frames — with bytes identical to N sequential
// SendTraced calls.
func TestDrainCoalescesWrites(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames []outFrame
	}{
		{"telemetry", telemetryFrames(fanOutDepth)},
		{"mixed", mixedFrames(fanOutDepth)},
		{"single", telemetryFrames(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := sequential(t, tc.frames)
			rw := &countingRW{}
			arms := 0
			if err := drain(NewConn(rw), queued(tc.frames), func() { arms++ }); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rw.Bytes(), want) {
				t.Fatalf("batched wire image differs from sequential SendTraced (%d vs %d bytes)",
					rw.Len(), len(want))
			}
			// The bound is in wire bytes; for Telemetry-only frames that is
			// exactly N·48.
			bound := (len(want)+4095)/4096 + 1
			if rw.writes > bound {
				t.Errorf("%d frames (%d bytes) took %d writes, want at most %d",
					len(tc.frames), len(want), rw.writes, bound)
			}
			if arms != 1 {
				t.Errorf("one pre-queued batch armed the deadline %d times, want 1", arms)
			}
		})
	}
}

// TestDrainFlushesQueuedFramesOnClose closes the channel behind a queued
// batch, so the close is seen mid-batch: the writer still flushes every
// frame queued before it, then returns cleanly.
func TestDrainFlushesQueuedFramesOnClose(t *testing.T) {
	frames := mixedFrames(10)
	rw := &countingRW{}
	if err := drain(NewConn(rw), queued(frames), func() {}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rw.Bytes(), sequential(t, frames)) {
		t.Fatalf("frames queued before the close were not all flushed (%d bytes)", rw.Len())
	}
}

// TestBroadcastRejectsInvalidFrame pins that one unwritable broadcast — an
// oversize body or a type with the traced flag bit — is rejected before
// fan-out instead of disconnecting every subscriber.
func TestBroadcastRejectsInvalidFrame(t *testing.T) {
	s := startServer(t)
	clients := make([]*Client, 2)
	for i := range clients {
		cl, err := Dial(s.Addr().String(), "sub")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	waitSubscribers(t, s, 2)

	before := mBroadcastRejected.Value()
	s.Broadcast(MsgTelemetry, make([]byte, MaxFrameSize+904))
	s.Broadcast(MsgType(flagTraced|byte(MsgTelemetry)), EncodeTelemetry(Telemetry{}))
	s.BroadcastTraced(MsgTelemetry, make([]byte, MaxFrameSize), &TraceContext{TraceID: 1})
	valid := Telemetry{Timestamp: time.Unix(7, 0).UTC(), CapsuleID: 42}
	s.BroadcastTelemetry(valid)

	for i, cl := range clients {
		cl.SetDeadline(time.Now().Add(3 * time.Second))
		ev, err := cl.Next()
		if err != nil {
			t.Fatalf("client %d lost its stream after an invalid broadcast: %v", i, err)
		}
		if ev.Type != MsgTelemetry || *ev.Telemetry != valid {
			t.Errorf("client %d got %+v, want the valid telemetry frame", i, ev)
		}
	}
	if n := s.Subscribers(); n != 2 {
		t.Errorf("subscribers = %d after invalid broadcasts, want 2", n)
	}
	if got := mBroadcastRejected.Value() - before; got != 3 {
		t.Errorf("rejected counter moved by %v, want 3", got)
	}
}

// TestBatchedFanOutLoopback streams bursts of a full queue to two loopback
// subscribers: every frame arrives in order, and Close leaves no writer
// goroutine behind. Run under -race it also checks the writer against the
// broadcaster and the reaper.
func TestBatchedFanOutLoopback(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogf(silent)
	clients := make([]*Client, 2)
	for i := range clients {
		cl, err := Dial(s.Addr().String(), "burst")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	waitSubscribers(t, s, 2)

	const bursts = 8
	evictionsBefore := mEvictions.Value()
	for b := 0; b < bursts; b++ {
		// A burst exactly fills each subscriber's queue; it fits because
		// the previous burst was fully received before this one starts.
		for i := 0; i < fanOutDepth; i++ {
			s.BroadcastTelemetry(Telemetry{CapsuleID: uint16(b*fanOutDepth + i)})
		}
		for c, cl := range clients {
			cl.SetDeadline(time.Now().Add(5 * time.Second))
			for i := 0; i < fanOutDepth; i++ {
				ev, err := cl.Next()
				if err != nil {
					t.Fatalf("burst %d client %d frame %d: %v", b, c, i, err)
				}
				if want := uint16(b*fanOutDepth + i); ev.Telemetry == nil || ev.Telemetry.CapsuleID != want {
					t.Fatalf("burst %d client %d: got %+v, want capsule %d", b, c, ev, want)
				}
			}
		}
	}
	if got := mEvictions.Value(); got != evictionsBefore {
		t.Errorf("a full-queue burst evicted a subscriber (%v -> %v)", evictionsBefore, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits on the server's WaitGroup, which a handle goroutine
	// releases in a deferred Done before it has fully exited, so poll the
	// stacks until the goroutines are gone; one that really leaks stays.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		var running []string
		for _, fn := range []string{"shmwire.drain", "shmwire.(*Server).handle"} {
			if strings.Contains(stacks, fn) {
				running = append(running, fn)
			}
		}
		if len(running) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v still running 2s after Close:\n%s", running, stacks)
		}
	}
}

// TestWriteDeadlineDropsWedgedSubscriber wedges a subscriber that never
// reads, feeding it without ever overflowing its queue: the batch write
// deadline, not an eviction, must drop it and be counted.
func TestWriteDeadlineDropsWedgedSubscriber(t *testing.T) {
	s := startServer(t)
	s.mu.Lock()
	s.writeTimeout = 50 * time.Millisecond
	s.mu.Unlock()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := NewConn(conn).Hello("wedged"); err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, s, 1)

	hitsBefore, evictionsBefore := mWriteDeadlineHits.Value(), mEvictions.Value()
	body := make([]byte, MaxFrameSize)
	deadline := time.Now().Add(10 * time.Second)
	for s.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("wedged subscriber never hit its write deadline")
		}
		backlog := 0
		s.mu.Lock()
		for _, sub := range s.subs {
			backlog = len(sub.ch)
		}
		s.mu.Unlock()
		if backlog < fanOutDepth/2 {
			s.Broadcast(MsgTelemetry, body)
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if got := mWriteDeadlineHits.Value(); got != hitsBefore+1 {
		t.Errorf("write deadline hits moved %v -> %v, want +1", hitsBefore, got)
	}
	if got := mEvictions.Value(); got != evictionsBefore {
		t.Errorf("evictions moved %v -> %v; the deadline, not the queue, must drop it", evictionsBefore, got)
	}
}
