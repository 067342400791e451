// Command shmserver streams the footbridge pilot's SHM telemetry over TCP
// using the shmwire binary protocol. In server mode it replays the
// simulated July-2021 month (accelerated), fusing capsule telemetry,
// per-section health rows, and threshold/anomaly alerts. In client mode it
// subscribes and prints the stream.
//
// Usage:
//
//	shmserver -listen 127.0.0.1:7455 [-speedup 3600] [-hours 744] [-mute 0x11,0x13]
//	shmserver -connect 127.0.0.1:7455 [-n 50] [-reconnect]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecocapsule/internal/bridge"
	"ecocapsule/internal/shm"
	"ecocapsule/internal/shmwire"
	"ecocapsule/internal/telemetry"
)

func main() {
	var (
		listen        = flag.String("listen", "", "serve on this address")
		connect       = flag.String("connect", "", "subscribe to this address")
		speedup       = flag.Float64("speedup", 3600, "simulated seconds per wall-clock second")
		hours         = flag.Int("hours", 24*31, "simulated hours to stream")
		nEvents       = flag.Int("n", 50, "client: events to print before exiting")
		mute          = flag.String("mute", "", "comma-separated capsule handles whose telemetry is suppressed (fault drill)")
		reconnect     = flag.Bool("reconnect", false, "client: ride over server restarts with backoff redials")
		telemetryAddr = flag.String("telemetry-addr", "", "serve /metrics, /healthz and pprof on this address")
		statusEvery   = flag.Int("status-interval", 24, "simulated hours between coverage status broadcasts")
	)
	flag.Parse()

	switch {
	case *listen != "":
		muted, err := parseMuted(*mute)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shmserver: %v\n", err)
			os.Exit(2)
		}
		if *statusEvery < 1 {
			fmt.Fprintln(os.Stderr, "shmserver: -status-interval must be >= 1")
			os.Exit(2)
		}
		if err := serve(*listen, *telemetryAddr, *speedup, *hours, *statusEvery, muted); err != nil {
			fmt.Fprintf(os.Stderr, "shmserver: %v\n", err)
			os.Exit(1)
		}
	case *connect != "":
		if err := subscribe(*connect, *nEvents, *reconnect); err != nil {
			fmt.Fprintf(os.Stderr, "shmserver: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// parseMuted reads the -mute list ("0x11,0x13" or decimal).
func parseMuted(spec string) (map[uint16]bool, error) {
	muted := make(map[uint16]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(part, "0x"), 16, 16)
		if err != nil {
			return nil, fmt.Errorf("bad -mute handle %q: %w", part, err)
		}
		muted[uint16(v)] = true
	}
	return muted, nil
}

func serve(addr, telemetryAddr string, speedup float64, hours, statusEvery int, muted map[uint16]bool) error {
	srv, err := shmwire.NewServer(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("shmserver: listening on %s (replaying %d h at %gx)\n",
		srv.Addr(), hours, speedup)

	health := newHealthState()
	if telemetryAddr != "" {
		// Populate every subsystem's metric families before the first
		// scrape, then open the operational endpoints.
		if err := selftest(); err != nil {
			return err
		}
		bound, err := startTelemetry(telemetryAddr, health)
		if err != nil {
			return err
		}
		fmt.Printf("shmserver: telemetry on http://%s/metrics\n", bound)
	}

	// Status broadcasts carry a trace context from a seeded tracer; the
	// logical timestamp is the simulated hour, so subscribers can order and
	// latency-check the feed without trusting wall clocks. The server replays
	// the last status to late joiners.
	tracer := telemetry.NewTracer(2021)

	sim := bridge.NewSim(2021)
	th := shm.FootbridgeThresholds()
	det := shm.NewAnomalyDetector()
	month := sim.SimulateMonth()
	anomalies := det.Detect(month.Acceleration)
	anomalous := make(map[int]bool)
	for _, a := range anomalies {
		for h := a.Start; h < a.End; h++ {
			anomalous[h] = true
		}
	}

	tick := time.Duration(3600 / speedup * float64(time.Second))
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	const deployedCapsules = 5
	var missing []uint16
	for i := 0; i < deployedCapsules; i++ {
		if muted[uint16(0x10+i)] {
			missing = append(missing, uint16(0x10+i))
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	for h := 0; h < hours && h < len(month.Acceleration); h++ {
		ts := sim.Start().Add(time.Duration(h) * time.Hour)
		env := sim.CapsuleEnvironment(h)
		// Five embedded capsules report in turn (§6 deployment); muted ones
		// stay silent, and the periodic status frame carries the hole.
		capsule := uint16(0x10 + h%deployedCapsules)
		if !muted[capsule] {
			srv.BroadcastTelemetry(shmwire.Telemetry{
				Timestamp:    ts,
				CapsuleID:    capsule,
				Acceleration: env.AccelerationMS2,
				StressMPa:    env.StressMPa,
				TemperatureC: env.TemperatureC,
				Humidity:     env.RelativeHumidity,
			})
		}
		if h%statusEvery == 0 {
			sp := tracer.Start("status_broadcast").Attr("sim_hour", h)
			ctx := sp.Context()
			tc := &shmwire.TraceContext{
				TraceID: ctx.TraceID, SpanID: ctx.SpanID,
				LogicalTS: uint64(h) * uint64(time.Hour),
			}
			st := shmwire.Status{
				Timestamp:    ts,
				Expected:     deployedCapsules,
				Reporting:    uint16(deployedCapsules - len(missing)),
				Degraded:     len(missing) > 0,
				MissingNodes: missing,
			}
			srv.BroadcastStatusTraced(st, tc)
			sp.End()
			health.RecordStatusBroadcast(ts)
		}
		mSimHours.Inc()
		if status, err := sim.SectionStatus(h); err == nil {
			for _, sec := range status {
				srv.BroadcastHealth(shmwire.Health{
					Timestamp:   ts,
					Section:     sec.Section[0],
					Level:       sec.Level.String()[0],
					Pedestrians: uint16(sec.Pedestrians),
					SpeedMS:     sec.SpeedMS,
				})
			}
		}
		if v := th.Check(shm.Measurement{
			VerticalAccel: math.Abs(env.AccelerationMS2),
			SteelStress:   math.Abs(env.StressMPa),
			PAO:           5,
		}); len(v) > 0 {
			srv.BroadcastAlert(shmwire.Alert{
				Timestamp: ts, Code: shmwire.AlertThreshold, Message: v[0].String(),
			})
		}
		if anomalous[h] && h%24 == 0 {
			srv.BroadcastAlert(shmwire.Alert{
				Timestamp: ts, Code: shmwire.AlertAnomaly,
				Message: fmt.Sprintf("acceleration anomaly window around %s (tropical cyclone)", ts.Format("2006-01-02")),
			})
		}
		time.Sleep(tick)
	}
	srv.Broadcast(shmwire.MsgBye, nil)
	fmt.Println("shmserver: replay complete")
	return nil
}

func subscribe(addr string, n int, reconnect bool) error {
	var next func() (shmwire.Event, error)
	if reconnect {
		rc := shmwire.NewReconnectingClient(shmwire.ReconnectConfig{
			Addr: addr,
			Name: "shmserver-cli",
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err := rc.Connect(); err != nil {
			return err
		}
		defer rc.Close()
		next = rc.Next
	} else {
		cl, err := shmwire.Dial(addr, "shmserver-cli")
		if err != nil {
			return err
		}
		defer cl.Close()
		next = cl.Next
	}
	for i := 0; i < n; i++ {
		ev, err := next()
		if err != nil {
			return err
		}
		switch ev.Type {
		case shmwire.MsgTelemetry:
			t := ev.Telemetry
			fmt.Printf("%s capsule %#04x  accel %+0.4f m/s²  stress %6.1f MPa  %4.1f °C  %3.0f %%RH\n",
				t.Timestamp.Format("01-02 15:04"), t.CapsuleID,
				t.Acceleration, t.StressMPa, t.TemperatureC, t.Humidity)
		case shmwire.MsgHealth:
			h := ev.Health
			fmt.Printf("%s section %c  health %c  peds %d  speed %.1f m/s\n",
				h.Timestamp.Format("01-02 15:04"), h.Section, h.Level, h.Pedestrians, h.SpeedMS)
		case shmwire.MsgAlert:
			a := ev.Alert
			fmt.Printf("%s ALERT(%d): %s\n", a.Timestamp.Format("01-02 15:04"), a.Code, a.Message)
		case shmwire.MsgStatus:
			st := ev.Status
			state := "FULL"
			if st.Degraded {
				state = "DEGRADED"
			}
			fmt.Printf("%s coverage %s: %d/%d capsules reporting", st.Timestamp.Format("01-02 15:04"),
				state, st.Reporting, st.Expected)
			for _, h := range st.MissingNodes {
				fmt.Printf(" missing=%#04x", h)
			}
			if ev.Trace != nil {
				fmt.Printf("  trace=%016x span=%08x", ev.Trace.TraceID, ev.Trace.SpanID)
			}
			fmt.Println()
		case shmwire.MsgBye:
			fmt.Println("stream ended by server")
			return nil
		}
	}
	return nil
}
