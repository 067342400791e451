package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/fleet"
	"ecocapsule/internal/telemetry"
)

// Server-side operational metrics.
var (
	mSimHours = telemetry.NewCounter("ecocapsule_shmserver_sim_hours_total",
		"simulated hours streamed since start")
	mLastBroadcast = telemetry.NewGauge("ecocapsule_shmserver_last_broadcast_timestamp_seconds",
		"wall-clock unix time of the last status broadcast")
	mSelftestReporting = telemetry.NewGauge("ecocapsule_shmserver_selftest_reporting_capsules",
		"capsules that answered the startup self-test survey")
)

// healthState is the mutable view /healthz renders. The replay loop updates
// it; the HTTP handler reads it.
type healthState struct {
	mu sync.Mutex
	// started is the server's wall-clock start time.
	started time.Time
	// lastBroadcast is the wall-clock time of the last status broadcast;
	// zero until the first one goes out.
	lastBroadcast time.Time
	// lastStatusSim is the simulated timestamp that broadcast carried.
	lastStatusSim time.Time
}

func newHealthState() *healthState {
	return &healthState{started: time.Now()}
}

// RecordStatusBroadcast notes a status broadcast for /healthz and the
// last-broadcast gauge.
func (h *healthState) RecordStatusBroadcast(simTime time.Time) {
	now := time.Now()
	h.mu.Lock()
	h.lastBroadcast = now
	h.lastStatusSim = simTime
	h.mu.Unlock()
	mLastBroadcast.Set(float64(now.Unix()))
}

// healthReport is the JSON body /healthz serves.
type healthReport struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// LastBroadcast is the wall-clock RFC3339 time of the last status
	// broadcast ("" until the first).
	LastBroadcast     string `json:"last_broadcast,omitempty"`
	LastBroadcastUnix int64  `json:"last_broadcast_unix,omitempty"`
	// LastStatusSimTime is the simulated timestamp that broadcast carried.
	LastStatusSimTime string `json:"last_status_sim_time,omitempty"`
	MetricFamilies    int    `json:"metric_families"`
}

func (h *healthState) report() healthReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep := healthReport{
		Status:         "ok",
		UptimeSeconds:  time.Since(h.started).Seconds(),
		MetricFamilies: telemetry.Default().Families(),
	}
	if !h.lastBroadcast.IsZero() {
		rep.LastBroadcast = h.lastBroadcast.UTC().Format(time.RFC3339)
		rep.LastBroadcastUnix = h.lastBroadcast.Unix()
		rep.LastStatusSimTime = h.lastStatusSim.UTC().Format(time.RFC3339)
	}
	return rep
}

// startTelemetry serves /metrics (Prometheus text), /metrics.json, /healthz
// and the pprof endpoints on addr, returning the bound address.
func startTelemetry(addr string, health *healthState) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.Default().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		telemetry.Default().WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(health.report())
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, telemetry.Flight().Render())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry listen: %w", err)
	}
	// The HTTP server lives for the process; the listener dies with it.
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

// selftest runs one demo-fleet survey plus an inventory pass under a light
// fault plan so every instrumented subsystem (reader, fleet, channel, phy,
// faultinject) has live series before the first scrape — a scrape of a
// just-started server proves the whole pipeline, not an empty registry.
func selftest() error {
	f, _, err := fleet.NewDemoFleet(fleet.DemoSeed)
	if err != nil {
		return fmt.Errorf("selftest fleet: %w", err)
	}
	f.ApplyInjector(faultinject.MustNew(faultinject.Plan{
		Seed:          fleet.DemoSeed,
		FrameLossProb: 0.05,
	}))
	f.Charge(0.4)
	f.Inventory(4)
	rep := f.Survey(0.4)
	mSelftestReporting.Set(float64(rep.Reporting))
	return nil
}
