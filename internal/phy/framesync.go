package phy

import (
	"errors"

	"ecocapsule/internal/coding"
)

// Frame synchronisation for the uplink. The node prefixes every FM0 frame
// with a fixed pilot pattern; the reader locates the frame start in a raw
// capture by correlating the demodulated baseband against the pilot's
// half-symbol template — replacing the oscilloscope-trigger alignment the
// paper's MATLAB decoder relied on.

// PilotBits is the uplink preamble: chosen for a flat spectrum and a sharp
// autocorrelation peak under FM0 (it mixes runs and alternations).
var PilotBits = []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}

// pilotTemplate returns the FM0 half-symbol levels of the pilot.
func pilotTemplate() []float64 {
	halves, err := coding.FM0Encode(PilotBits)
	if err != nil {
		panic("phy: pilot bits invalid: " + err.Error())
	}
	return halves
}

// ErrNoSync is returned when the pilot cannot be located.
var ErrNoSync = errors.New("phy: pilot correlation found no frame start")

// PrependPilot returns pilot ‖ payload for transmission.
func PrependPilot(payload []byte) []byte {
	out := make([]byte, 0, len(PilotBits)+len(payload))
	out = append(out, PilotBits...)
	return append(out, payload...)
}
