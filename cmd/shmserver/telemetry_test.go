package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"ecocapsule/internal/telemetry"
)

// TestFlightRecorderEndpointMatchesDump: /debug/flightrecorder serves the
// text Render gives, and a dump taken of the same history renders the
// same bytes, after the rings have wrapped.
func TestFlightRecorderEndpointMatchesDump(t *testing.T) {
	addr, err := startTelemetry("127.0.0.1:0", newHealthState())
	if err != nil {
		t.Fatal(err)
	}
	fr := telemetry.Flight()
	for i := 1; i <= telemetry.DefaultFlightCapacity+9; i++ {
		fr.Record("reader", "backoff", fmt.Sprintf("read re-send %d", i))
		if i%20 == 0 {
			fr.Record("fleet", "survey_degraded", "")
		}
	}
	fr.Dump("test: endpoint")
	resp, err := http.Get("http://" + addr + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, dumped, _ := fr.LastDump()
	if string(body) != fr.Render() || dumped != fr.Render() {
		t.Errorf("endpoint served\n%s\ndump rendered\n%s\nRender gives\n%s", body, dumped, fr.Render())
	}
	if want := fmt.Sprintf("subsystem reader (%d recorded, 9 overwritten):", telemetry.DefaultFlightCapacity+9); !strings.Contains(string(body), want) {
		t.Errorf("endpoint text lacks %q:\n%s", want, body)
	}
}
