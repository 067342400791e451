package channel

import "ecocapsule/internal/telemetry"

// Metric handles, resolved once so Transmit pays one atomic op per event.
// The link metrics count deployed links (LinkGain), not Channel builds.
var (
	mLinks = telemetry.NewCounter("ecocapsule_channel_links_total",
		"reader-to-capsule links deployed, each counted once when its gain is evaluated")
	mTransmits = telemetry.NewCounter("ecocapsule_channel_transmits_total",
		"waveforms pushed through a channel")
	mPathGain = telemetry.NewHistogram("ecocapsule_channel_path_gain",
		"aggregate linear path gain of deployed reader-to-capsule links",
		[]float64{1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1})
)
