package faultinject

import "ecocapsule/internal/telemetry"

// mInjected counts the faults an injector actually inflicted, by kind. Set
// against the observing layers' own counters (reader corrupted replies,
// fleet missing rows) it shows how many injected faults the stack noticed versus
// silently absorbed.
var mInjected = telemetry.NewCounterVec("ecocapsule_faultinject_injected_total",
	"faults injected by kind", "kind")

// Injected fault kind label values (mirror the Stats fields).
const (
	kindDownlinkDropped   = "downlink_dropped"
	kindDownlinkCorrupted = "downlink_corrupted"
	kindUplinkDropped     = "uplink_dropped"
	kindUplinkCorrupted   = "uplink_corrupted"
	kindBrownout          = "brownout"
)
