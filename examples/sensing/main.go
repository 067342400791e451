// Sensing: long-term in-concrete condition monitoring with alarm
// thresholds — the scenario the paper's introduction motivates (detecting
// the slow degradation that preceded the Champlain Towers collapse). A
// protective wall is cast with capsules; we replay a year of accelerating
// water-ingress corrosion and watch the strain/humidity trends cross their
// alarm thresholds long before failure.
package main

import (
	"fmt"
	"log"
	"math"

	"ecocapsule"
	"ecocapsule/internal/units"
)

// degradation models slow water penetration: internal humidity and strain
// creep up super-linearly in the damaged region near x≈2 m.
func degradation(month int, pos ecocapsule.Vec3) ecocapsule.Environment {
	t := float64(month) / 12
	// Damage intensity peaks near the leak and decays with distance.
	proximity := math.Exp(-((pos.X - 2.0) * (pos.X - 2.0)) / 2)
	damage := t * t * proximity
	return ecocapsule.Environment{
		TemperatureC:     22 + 6*math.Sin(2*math.Pi*float64(month)/12),
		RelativeHumidity: 62 + 33*damage,
		StrainX:          (40 + 700*damage) * units.UE,
		StrainY:          (25 + 450*damage) * units.UE,
		StressMPa:        -45 - 20*damage,
	}
}

func main() {
	wall := ecocapsule.ProtectiveWall()
	cast, err := ecocapsule.NewCasting(wall)
	if err != nil {
		log.Fatal(err)
	}
	// Capsules at 1, 2, 3, 6 m: two near the (future) leak, two remote.
	positions := []float64{1, 2, 3, 6}
	for i, x := range positions {
		capsule := ecocapsule.NewNode(ecocapsule.NodeConfig{
			Handle:   uint16(0x20 + i),
			Position: ecocapsule.Position(x, 10, 0.25),
			Seed:     int64(i),
		})
		if err := cast.Mix(capsule); err != nil {
			log.Fatal(err)
		}
	}
	cast.Seal()
	rd, err := cast.AttachReader(ecocapsule.ReaderConfig{
		TXPosition:   ecocapsule.Position(0.1, 10, 0),
		DriveVoltage: 220,
		Seed:         5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Alarm thresholds for reinforced concrete condition.
	const (
		humidityAlarm = 85.0  // %RH: sustained saturation corrodes rebar
		strainAlarm   = 400.0 // µε: approaching the NC cracking strain
	)

	fmt.Println("month  capsule   strainX(µε)  RH(%)   status")
	month := 0
	alarmed := map[uint16]bool{}
	for ; month <= 24; month += 3 {
		m := month
		rd.SetEnvironment(func(pos ecocapsule.Vec3) ecocapsule.Environment {
			return degradation(m, pos)
		})
		if rd.Charge(0.5) == 0 {
			log.Fatal("no capsule powered up")
		}
		inv := rd.Inventory(16)
		for _, h := range inv.Discovered {
			strain, err := rd.ReadSensor(h, ecocapsule.Strain)
			if err != nil {
				continue
			}
			th, err := rd.ReadSensor(h, ecocapsule.TempHumidity)
			if err != nil {
				continue
			}
			ux := strain[0] * 1e6
			rh := th[1]
			status := "ok"
			if ux > strainAlarm || rh > humidityAlarm {
				status = "ALARM"
				if !alarmed[h] {
					alarmed[h] = true
					status = "ALARM (first)"
				}
			}
			fmt.Printf("%5d  %#04x     %8.0f   %5.1f   %s\n", month, h, ux, rh, status)
		}
	}

	fmt.Printf("\n%d capsule(s) raised degradation alarms; the capsules near the\n", len(alarmed))
	fmt.Println("leak (x≈2 m) alarm first, localising the damage years before failure —")
	fmt.Println("the monitoring the paper argues could have caught the Surfside collapse.")
}
