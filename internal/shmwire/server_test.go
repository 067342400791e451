package shmwire

import (
	"net"
	"runtime"
	"testing"
	"time"
)

func silent(string, ...any) {}

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogf(silent)
	t.Cleanup(func() { s.Close() })
	return s
}

func waitSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if s.Subscribers() == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("subscriber count never reached %d (now %d)", n, s.Subscribers())
}

func TestServerTelemetryStream(t *testing.T) {
	s := startServer(t)
	cl, err := Dial(s.Addr().String(), "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitSubscribers(t, s, 1)

	want := Telemetry{
		Timestamp:    time.Date(2021, 7, 10, 9, 0, 0, 0, time.UTC),
		CapsuleID:    7,
		Acceleration: 0.012,
		StressMPa:    -61,
		TemperatureC: 30.5,
		Humidity:     74,
	}
	s.BroadcastTelemetry(want)
	cl.SetDeadline(time.Now().Add(3 * time.Second))
	ev, err := cl.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != MsgTelemetry || ev.Telemetry == nil {
		t.Fatalf("event %+v", ev)
	}
	if *ev.Telemetry != want {
		t.Errorf("telemetry %+v, want %+v", *ev.Telemetry, want)
	}
}

func TestServerHealthAndAlert(t *testing.T) {
	s := startServer(t)
	cl, err := Dial(s.Addr().String(), "bms")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitSubscribers(t, s, 1)

	h := Health{Timestamp: time.Unix(0, 1e18).UTC(), Section: 'B', Level: 'A', Pedestrians: 3, SpeedMS: 1.5}
	a := Alert{Timestamp: time.Unix(0, 2e18).UTC(), Code: AlertThreshold, Message: "stress over limit"}
	s.BroadcastHealth(h)
	s.BroadcastAlert(a)

	cl.SetDeadline(time.Now().Add(3 * time.Second))
	ev1, err := cl.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Type != MsgHealth || *ev1.Health != h {
		t.Errorf("health event %+v", ev1)
	}
	ev2, err := cl.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Type != MsgAlert || *ev2.Alert != a {
		t.Errorf("alert event %+v", ev2)
	}
}

func TestServerMultipleSubscribers(t *testing.T) {
	s := startServer(t)
	const n = 4
	clients := make([]*Client, n)
	for i := range clients {
		cl, err := Dial(s.Addr().String(), "sub")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	waitSubscribers(t, s, n)

	s.BroadcastTelemetry(Telemetry{Timestamp: time.Unix(1626000000, 0).UTC(), CapsuleID: 1})
	for i, cl := range clients {
		cl.SetDeadline(time.Now().Add(3 * time.Second))
		ev, err := cl.Next()
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if ev.Type != MsgTelemetry || ev.Telemetry.CapsuleID != 1 {
			t.Errorf("client %d event %+v", i, ev)
		}
	}
}

func TestServerRejectsSilentClients(t *testing.T) {
	// A client that never sends Hello is dropped and never counted.
	s := startServer(t)
	cl, err := Dial(s.Addr().String(), "polite")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitSubscribers(t, s, 1)
	// The polite client still works.
	s.BroadcastTelemetry(Telemetry{Timestamp: time.Unix(1, 0).UTC()})
	cl.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := cl.Next(); err != nil {
		t.Fatal(err)
	}
}

// TestServerCloseDisconnectsClients closes a server with a subscriber, a
// peer that said Bye and a silent peer still owing its Hello: Close must
// end all three promptly, and every goroutine the server started must
// exit.
func TestServerCloseDisconnectsClients(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := startServer(t)
	// The silent peer dials first: the server accepts in order, so its
	// handler is running by the time the subscriber below registers.
	silentPeer, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silentPeer.Close()
	cl, err := Dial(s.Addr().String(), "x")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitSubscribers(t, s, 1)
	bye, err := Dial(s.Addr().String(), "bye")
	if err != nil {
		t.Fatal(err)
	}
	defer bye.Close()
	waitSubscribers(t, s, 2)
	if err := bye.c.Send(MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, s, 1)

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Errorf("Close took %v with a peer in the handshake, want < 1s", d)
	}
	cl.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := cl.Next(); err == nil {
		t.Error("closed server must end the stream")
	}
	silentPeer.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := silentPeer.Read(make([]byte, 1)); err == nil {
		t.Error("closed server must drop the peer in the handshake")
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Close, want the pre-server %d", n, baseline)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "x"); err == nil {
		t.Error("dialing a dead port must fail")
	}
}
