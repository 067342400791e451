package physics

import "ecocapsule/internal/units"

// The acoustic link's operating point (§3.2–3.3). Every layer that drives,
// models or decodes the body wave reads these two values, so moving the
// operating point is a one-line change here.
const (
	// CarrierHz is the body-wave carrier near concrete's resonance
	// (Fig. 5b): charging, every link's channel, the uplink CBW, the
	// downlink's resonant tone and the HRA's target band all run at it.
	CarrierHz = 230 * units.KHz //ecolint:unit hz

	// PrismAngleDeg is the PLA wave prism's incidence angle in degrees,
	// inside the S-only window between the two critical angles (§3.2).
	PrismAngleDeg = 60
)
