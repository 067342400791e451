// Localization: after the pour, nobody knows exactly where the capsules
// settled (§3.2 — the prism exists so charging doesn't need to know). For
// maintenance, though, a position map matters: this example ranges each
// discovered capsule from several reader anchor positions on the wall
// surface and trilaterates its location, reporting the anchor-geometry
// quality (dilution of precision) alongside each fix.
package main

import (
	"fmt"
	"log"

	"ecocapsule"
	"ecocapsule/internal/channel"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/locate"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
)

func main() {
	wall := ecocapsule.Wall()
	cast, err := ecocapsule.NewCasting(wall)
	if err != nil {
		log.Fatal(err)
	}
	// Three capsules at "unknown" positions (the pour scattered them).
	truths := []ecocapsule.Vec3{
		ecocapsule.Position(0.9, 9.6, 0.08),
		ecocapsule.Position(1.7, 10.5, 0.12),
		ecocapsule.Position(2.6, 9.9, 0.05),
	}
	for i, pos := range truths {
		capsule := ecocapsule.NewNode(ecocapsule.NodeConfig{
			Handle:   uint16(0x30 + i),
			Position: pos,
			Seed:     int64(i),
		})
		if err := cast.Mix(capsule); err != nil {
			log.Fatal(err)
		}
	}
	cast.Seal()

	// Reader anchor positions on the wall face: spread for geometry.
	anchors := []geometry.Vec3{
		{X: 0.2, Y: 9.0, Z: 0},
		{X: 3.0, Y: 9.2, Z: 0},
		{X: 1.5, Y: 11.5, Z: 0},
		{X: 0.6, Y: 10.8, Z: 0.2},
		{X: 2.4, Y: 10.4, Z: 0.2},
	}
	speed := wall.Material.VS()

	fmt.Println("capsule  true position        estimated position    error   residual  DOP")
	for i, truth := range truths {
		// Range from every anchor: the first S-arrival delay of the
		// channel is the time-of-flight observation a real reader would
		// measure by round-trip timing.
		var ms []locate.Measurement
		for _, a := range anchors {
			ch, err := channel.New(channel.Config{
				Structure:   wall,
				Source:      a,
				Destination: truth,
				PrismAngle:  units.Deg2Rad(physics.PrismAngleDeg),
			})
			if err != nil {
				log.Fatal(err)
			}
			first := ch.Arrivals()[0]
			ms = append(ms, locate.MeasureFromChannel(a, first.Delay, speed))
		}
		res, err := locate.Solve(ms, wall)
		if err != nil {
			log.Fatalf("capsule %d: %v", i, err)
		}
		dop := locate.DilutionOfPrecision(res.Position, anchors)
		fmt.Printf("%#04x   (%.2f, %.2f, %.2f)   (%.2f, %.2f, %.2f)   %.3f m  %.4f m  %.2f\n",
			0x30+i,
			truth.X, truth.Y, truth.Z,
			res.Position.X, res.Position.Y, res.Position.Z,
			res.Position.Dist(truth), res.RMSResidual, dop)
	}

	fmt.Println("\nanchor-geometry sanity: collinear anchors would blow the DOP up —")
	collinear := []geometry.Vec3{{X: 0, Y: 10, Z: 0}, {X: 1, Y: 10, Z: 0}, {X: 2, Y: 10, Z: 0}}
	fmt.Printf("spread anchors DOP %.2f vs collinear DOP %.2f\n",
		locate.DilutionOfPrecision(truths[0], anchors),
		locate.DilutionOfPrecision(truths[0], collinear))
}
