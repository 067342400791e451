package fleet

// City-scale fleet construction for ecobench's fleet_survey tiers (the
// 1k tier is gated in verify.sh's bench stage) and pipebench's survey
// workloads. A "building segment" is one long wall with
// capsules embedded every few centimetres and reader stations bolted on at
// regular intervals — the paper's end state of a concrete volume that is
// itself the sensing fabric. Handles are 16-bit on the wire, so one fleet
// tops out at 60k capsules; a city block beyond that is surveyed as
// several buildings (see cmd/ecobench, which runs 100k as two 50k
// segments).

import (
	"fmt"

	"ecocapsule/internal/deploy"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/node"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/units"
)

const (
	// cityCapsuleSpacing is the embedding pitch along the wall.
	//
	//ecolint:unit m
	cityCapsuleSpacing = 0.05
	// cityStationSpacing is the reader pitch along the wall.
	//
	//ecolint:unit m
	cityStationSpacing = 4.5
	// cityVoltage is the station drive voltage.
	//
	//ecolint:unit v
	cityVoltage = 200.0
	// cityMaxCapsules is the per-fleet population ceiling (16-bit handles,
	// a margin below 65536 kept for reserved/control handles).
	cityMaxCapsules = 60000
)

// cityWall sizes a wall segment to hold n capsules at the city pitch.
func cityWall(n int) *geometry.Structure {
	length := 1.0 + float64(n)*cityCapsuleSpacing
	if length < 20 {
		length = 20
	}
	return &geometry.Structure{
		Name: "city-wall", Shape: geometry.Box, Material: material.NC(),
		Length: length, Height: 3.0, Thickness: 0.20,
		SurfaceLossDB: 0.3,
	}
}

// cityDeployment lays out the capsule population and the station plan for
// one n-capsule building segment. Handles start at handleBase so several
// segments can coexist on one dashboard without colliding.
func cityDeployment(n int, handleBase uint16, seed int64) (*geometry.Structure, deploy.Plan, []*node.Node, error) {
	if n < 1 || n > cityMaxCapsules {
		return nil, deploy.Plan{}, nil, fmt.Errorf("fleet: city segment size %d outside [1, %d]", n, cityMaxCapsules)
	}
	wall := cityWall(n)
	capsules := make([]*node.Node, n)
	for i := range capsules {
		capsules[i] = node.New(node.Config{
			Handle:   handleBase + uint16(i),
			Position: geometry.Vec3{X: 0.5 + float64(i)*cityCapsuleSpacing, Y: wall.Height / 2, Z: 0.1},
			Seed:     seed + int64(i),
		})
	}
	rng, err := reader.MaxPowerUpRange(reader.Config{
		Structure:  wall,
		TXPosition: geometry.Vec3{X: 0.1, Y: wall.Height / 2, Z: 0},
	}, cityVoltage)
	if err != nil {
		return nil, deploy.Plan{}, nil, fmt.Errorf("fleet: city range sweep: %w", err)
	}
	if rng <= 0 {
		return nil, deploy.Plan{}, nil, fmt.Errorf("fleet: no power-up range at %g V", cityVoltage)
	}
	plan := deploy.Plan{Voltage: cityVoltage}
	for x := 0.1; x < wall.Length; x += cityStationSpacing {
		plan.Stations = append(plan.Stations, deploy.Station{
			Position: geometry.Vec3{X: x, Y: wall.Height / 2, Z: 0},
			RangeM:   rng,
		})
	}
	return wall, plan, capsules, nil
}

// NewCityFleet builds one n-capsule building segment as a sharded fleet.
// MaxOrder 1 keeps the per-link channel model to direct-plus-first-bounce
// arrivals — at building scale the higher-order images are below the noise
// floor and only cost construction time.
func NewCityFleet(n, shards int, seed int64) (*Fleet, error) {
	wall, plan, capsules, err := cityDeployment(n, 1, seed)
	if err != nil {
		return nil, err
	}
	return NewSharded(wall, plan, capsules, seed, Options{Shards: shards, MaxOrder: 1})
}

// NewCityFleetFlat builds the identical segment in the flat shape — one
// cell, one shard, every capsule deployed into every station, exactly the
// classic New layout — as the serial comparator for the sharded
// benchmarks. MaxOrder matches NewCityFleet so the comparison isolates the
// registry shape, not the channel model. Construction is O(capsules ×
// stations) channel builds; expect tens of seconds at 10k.
func NewCityFleetFlat(n int, seed int64) (*Fleet, error) {
	wall, plan, capsules, err := cityDeployment(n, 1, seed)
	if err != nil {
		return nil, err
	}
	return NewSharded(wall, plan, capsules, seed, Options{Shards: 1, Cells: 1, MaxOrder: 1})
}

// CityEnvironment is a position-derived ground-truth sampler for the
// city-scale benchmarks: a slow thermal gradient along the wall over a
// uniform service load. Pure function of position, safe for concurrent use.
func CityEnvironment(pos geometry.Vec3) sensors.Environment {
	return sensors.Environment{
		TemperatureC:     18 + pos.X/100,
		RelativeHumidity: 60,
		StrainX:          120 * units.UE,
		StrainY:          45 * units.UE,
	}
}
