// Multinode: a dense deployment of capsules in one wall, exercising the
// TDMA inventory (slotted ALOHA with adaptive Q) and the per-node BLF plan
// that keeps the uplinks separable in the spectrum — the §3.4 scaling
// story.
package main

import (
	"fmt"
	"log"

	"ecocapsule"
	"ecocapsule/internal/phy"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/units"
)

func main() {
	wall := ecocapsule.Wall()
	cast, err := ecocapsule.NewCasting(wall)
	if err != nil {
		log.Fatal(err)
	}

	// Ten capsules concentrated in the first 4 m of the wall so they all
	// sit inside the 200 V power-up range.
	const n = 10
	for i := 0; i < n; i++ {
		capsule := ecocapsule.NewNode(ecocapsule.NodeConfig{
			Handle:   uint16(0x100 + i),
			Position: ecocapsule.Position(0.5+0.35*float64(i), 10, 0.1),
			Seed:     int64(i),
		})
		if err := cast.Mix(capsule); err != nil {
			log.Fatalf("capsule %d: %v", i, err)
		}
	}
	rep := cast.Seal()
	fmt.Printf("cast %d capsules (CT intact: %v)\n", rep.Capsules, rep.Intact())

	rd, err := cast.AttachReader(ecocapsule.ReaderConfig{
		TXPosition:   ecocapsule.Position(0.1, 10, 0),
		DriveVoltage: 220,
		Seed:         99,
	})
	if err != nil {
		log.Fatal(err)
	}
	up := rd.Charge(0.5)
	fmt.Printf("%d/%d capsules powered up\n", up, n)

	// Inventory with collision accounting.
	inv := rd.Inventory(32)
	fmt.Printf("inventory: %d discovered, %d rounds, %d collisions, %d empty slots\n",
		len(inv.Discovered), inv.Rounds, inv.Collisions, inv.Empties)
	for _, h := range inv.Discovered {
		fmt.Printf("  capsule %#04x\n", h)
	}

	// Assign each discovered capsule its own backscatter link frequency so
	// simultaneous uplinks separate in the spectrum (Appendix C).
	plan := phy.DefaultBLFPlan()
	fmt.Printf("BLF plan (offsets from the %.0f kHz carrier):\n", physics.CarrierHz/units.KHz)
	for i, h := range inv.Discovered {
		fmt.Printf("  capsule %#04x → +%.1f kHz\n", h, plan.Offset(i)/1000)
	}

	// Theoretical slotted-ALOHA efficiency at the matched Q.
	for _, q := range []int{2, 3, 4, 5} {
		eff := protocol.ExpectedEfficiency(up, q)
		fmt.Printf("Q=%d (%2d slots): expected efficiency %.2f successes/slot\n",
			q, 1<<uint(q), eff)
	}
}
