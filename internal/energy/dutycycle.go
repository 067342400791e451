package energy

import (
	"errors"
	"math"

	"ecocapsule/internal/units"
)

// Duty-cycle planning: a capsule that cannot harvest enough for continuous
// operation can still report periodically by banking charge in its storage
// capacitor — sleep at 0.9 µW, wake, transmit a frame, sleep again. The
// planner answers the deployment question "how often can this capsule
// report at this depth?", which sets the SHM sampling cadence. SHM
// tolerates long periods: "the degradation of a building takes days rather
// than seconds" (§3.4).

// DutyCyclePlan describes a sustainable reporting schedule.
type DutyCyclePlan struct {
	// Period between reports in seconds.
	//
	//ecolint:unit s
	Period float64
	// ActiveTime per report in seconds (wake + sample + transmit).
	//
	//ecolint:unit s
	ActiveTime float64
	// EnergyPerReport in joules.
	//
	//ecolint:unit j
	EnergyPerReport float64
	// HarvestPower available in watts.
	//
	//ecolint:unit w
	HarvestPower float64
	// Continuous is true when harvesting covers continuous operation and
	// no duty cycling is needed.
	Continuous bool
}

// ReportCost models one reporting cycle.
type ReportCost struct {
	// FrameBits of the uplink frame (payload + framing).
	FrameBits int
	// Bitrate of the uplink in bit/s.
	//
	//ecolint:unit hz
	Bitrate float64
	// SampleTime is the sensor acquisition time in seconds.
	//
	//ecolint:unit s
	SampleTime float64
	// SamplePower is the sensor + ADC draw during acquisition in watts.
	//
	//ecolint:unit w
	SamplePower float64
}

// DefaultReportCost returns a typical strain report: a 15-byte frame at
// 1 kbps plus an 8 ms sensor acquisition.
func DefaultReportCost() ReportCost {
	return ReportCost{
		FrameBits:   15 * 8,
		Bitrate:     1 * units.KHz,
		SampleTime:  8 * units.MS,
		SamplePower: 120 * units.UW,
	}
}

// ErrNeverSustainable is returned when even infinite periods cannot fund a
// report (harvest below the sleep floor).
var ErrNeverSustainable = errors.New("energy: harvest below the sleep floor; no duty cycle sustains reporting")

// PlanDutyCycle computes the shortest sustainable reporting period for a
// capsule harvesting at PZT amplitude vin.
//
//ecolint:unit vin v
func PlanDutyCycle(b Budget, cost ReportCost, vin float64) (DutyCyclePlan, error) {
	if cost.Bitrate <= 0 || cost.FrameBits <= 0 {
		return DutyCyclePlan{}, errors.New("energy: invalid report cost")
	}
	harvest := b.Harvester.HarvestedPower(vin)
	txTime := float64(cost.FrameBits) / cost.Bitrate
	active := txTime + cost.SampleTime
	// Energy per report: transmit at active power, sample at sensor power
	// on top of standby electronics.
	eReport := b.MCU.PowerAt(cost.Bitrate)*txTime +
		(b.MCU.PowerAt(0)+cost.SamplePower)*cost.SampleTime
	plan := DutyCyclePlan{
		ActiveTime:      active,
		EnergyPerReport: eReport,
		HarvestPower:    harvest,
	}
	// Continuous operation: harvesting covers the standby draw plus the
	// amortised report cost at zero rest.
	if harvest >= b.MCU.PowerAt(cost.Bitrate)+cost.SamplePower {
		plan.Continuous = true
		plan.Period = active
		return plan, nil
	}
	// Duty-cycled: between reports the node sleeps at SleepPower and banks
	// (harvest − sleep). The period T satisfies
	//   (harvest − sleep)·(T − active) ≥ eReport − harvest·active
	sleep := b.MCU.SleepPower
	margin := harvest - sleep
	if margin <= 0 {
		return DutyCyclePlan{}, ErrNeverSustainable
	}
	deficit := eReport - harvest*active
	if deficit <= 0 {
		plan.Period = active
		return plan, nil
	}
	plan.Period = active + deficit/margin
	return plan, nil
}

// ReportsPerDay converts the plan to a daily cadence.
func (p DutyCyclePlan) ReportsPerDay() float64 {
	if p.Period <= 0 {
		return math.Inf(1)
	}
	return 86400 / p.Period
}
