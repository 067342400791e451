// Package deploy plans reader placements for full-coverage charging: given
// a structure and a drive voltage, it computes where to attach readers so
// every embedded capsule sits inside some reader's power-up range. The
// paper powers one wall with one prism-equipped reader; a 20 m wall at
// 50 V needs several stations, and maintenance crews want the list.
package deploy

import (
	"errors"
	"fmt"
	"math"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/energy"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/units"
)

// Station is one planned reader attachment point.
type Station struct {
	Position geometry.Vec3
	// RangeM is the power-up radius the planner assumed at this station.
	RangeM float64
	// Covers lists the indices (into the capsule slice) charged here.
	Covers []int
}

// Plan is a full deployment.
type Plan struct {
	Stations []Station
	// Voltage used for the range calculation.
	Voltage float64
	// Uncovered lists capsule indices no station reaches (empty when the
	// plan is feasible).
	Uncovered []int
}

// Feasible reports whether every capsule is covered.
func (p Plan) Feasible() bool { return len(p.Uncovered) == 0 }

// Errors.
var (
	ErrNoCapsules = errors.New("deploy: no capsule positions supplied")
	ErrNoRange    = errors.New("deploy: zero power-up range at this voltage")
)

// Cover computes a station plan with a greedy set-cover over candidate
// stations placed along the structure's long axis. Candidates are spaced
// half a power-up range apart; each round the candidate covering the most
// still-uncovered capsules is selected.
func Cover(s *geometry.Structure, capsules []geometry.Vec3, voltage float64) (Plan, error) {
	if len(capsules) == 0 {
		return Plan{}, ErrNoCapsules
	}
	cfg := reader.Config{Structure: s, TXPosition: stationPosition(s, 0.1)}
	rng, err := reader.MaxPowerUpRange(cfg, voltage)
	if err != nil {
		return Plan{}, err
	}
	if rng <= 0 {
		return Plan{}, fmt.Errorf("%w (%.0f V)", ErrNoRange, voltage)
	}
	axis := s.MaxRangeAxis()
	step := rng / 2
	if step <= 0 {
		step = axis
	}
	// Candidate stations along the axis.
	var candidates []geometry.Vec3
	for d := 0.1; d <= axis; d += step {
		candidates = append(candidates, stationPosition(s, d))
	}
	if len(candidates) == 0 {
		candidates = append(candidates, stationPosition(s, 0.1))
	}

	// Coverage is decided by the delivered PZT amplitude of the actual
	// candidate→capsule channel, not by Euclidean distance: boundary
	// proximity and confinement make the two disagree by tens of percent.
	harv := energy.DefaultHarvester()
	hraGain := physics.PaperHRA().Gain(s.Material.WaveSpeed(), 230*units.KHz)
	reaches := func(station, capsule geometry.Vec3) bool {
		if station.Dist(capsule) > rng*1.3 {
			return false // cheap pre-filter
		}
		ch, err := channel.New(channel.Config{
			Structure:   s,
			Source:      station,
			Destination: capsule,
			PrismAngle:  units.Deg2Rad(60),
		})
		if err != nil {
			return false
		}
		vin := voltage * ch.PathGain() * reader.DefaultPZTCoupling * hraGain
		return harv.CanActivate(vin)
	}

	plan := Plan{Voltage: voltage}
	covered := make([]bool, len(capsules))
	remaining := len(capsules)
	for remaining > 0 {
		bestIdx, bestCount := -1, 0
		var bestCovers []int
		for ci, cand := range candidates {
			var covers []int
			for i, cap := range capsules {
				if covered[i] {
					continue
				}
				if reaches(cand, cap) {
					covers = append(covers, i)
				}
			}
			if len(covers) > bestCount {
				bestIdx, bestCount, bestCovers = ci, len(covers), covers
			}
		}
		if bestIdx < 0 {
			break // nothing reachable remains
		}
		plan.Stations = append(plan.Stations, Station{
			Position: candidates[bestIdx],
			RangeM:   rng,
			Covers:   bestCovers,
		})
		for _, i := range bestCovers {
			covered[i] = true
			remaining--
		}
	}
	for i, ok := range covered {
		if !ok {
			plan.Uncovered = append(plan.Uncovered, i)
		}
	}
	return plan, nil
}

// stationPosition places a reader footprint d metres along the long axis on
// the structure surface.
func stationPosition(s *geometry.Structure, d float64) geometry.Vec3 {
	if s.Shape == geometry.Cylinder {
		return geometry.Vec3{X: s.Diameter / 2, Y: math.Min(d, s.Height), Z: 0}
	}
	return geometry.Vec3{X: math.Min(d, s.Length), Y: s.Height / 2, Z: 0}
}

// MinimumVoltage searches for the smallest drive voltage whose plan covers
// every capsule with at most maxStations stations. It returns the voltage
// and its plan, or an error when even the amplifier ceiling cannot cover.
func MinimumVoltage(s *geometry.Structure, capsules []geometry.Vec3, maxStations int) (float64, Plan, error) {
	if maxStations < 1 {
		maxStations = 1
	}
	lo, hi := 10.0, reader.MaxDriveVoltage
	check := func(v float64) (Plan, bool) {
		p, err := Cover(s, capsules, v)
		if err != nil {
			return Plan{}, false
		}
		return p, p.Feasible() && len(p.Stations) <= maxStations
	}
	bestPlan, ok := check(hi)
	if !ok {
		return 0, Plan{}, fmt.Errorf("deploy: no feasible plan with %d station(s) even at %.0f V", maxStations, hi)
	}
	bestV := hi
	for i := 0; i < 20; i++ {
		mid := (lo + hi) / 2
		if p, ok := check(mid); ok {
			bestV, bestPlan, hi = mid, p, mid
		} else {
			lo = mid
		}
	}
	return bestV, bestPlan, nil
}
