// Command ecoreader is an interactive reader console against a simulated
// self-sensing wall: cast a wall with embedded capsules, then charge,
// inventory, and read sensors from a REPL — the operator workflow of
// Fig. 1(f).
//
// Usage:
//
//	ecoreader [-capsules N] [-voltage V] [-structure wall|slab|column|protective]
//	ecoreader trace [-capsules N] [-seed S] [-read 0xNN] [-loss P]
//
// The trace subcommand runs one seeded charge → inventory → read cycle
// non-interactively and prints its deterministic span tree (same seed,
// byte-identical output) — see the Observability section of the README.
//
// Commands at the prompt:
//
//	charge [seconds]     drive the CBW (default 0.5 s)
//	inventory            run a TDMA inventory
//	read <handle> <temp|strain|accel>
//	locate <handle>      estimate the capsule position from multi-anchor ranging
//	cadence <handle>     sustainable reporting schedule at current excitation
//	voltage <V>          change the drive voltage
//	status               list capsule states
//	faults <loss> <corrupt> [seed]   inject link faults (probabilities in [0,1])
//	faults off           remove the fault injector
//	faultstats           show link-fault and retry counters
//	quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ecocapsule/internal/core"
	"ecocapsule/internal/energy"
	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/locate"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
)

// locateCapsule takes ranging observations from several surface anchors to
// the capsule (via fresh channels) and trilaterates its position.
func locateCapsule(s *geometry.Structure, r *reader.Reader, handle uint16) (locate.Result, error) {
	var target geometry.Vec3
	found := false
	for _, n := range r.Nodes() {
		if n.Handle() == handle {
			target = n.Position()
			found = true
		}
	}
	if !found {
		return locate.Result{}, fmt.Errorf("unknown capsule %#04x", handle)
	}
	anchors := locateAnchors(s)
	speed := s.Material.WaveSpeed()
	var ms []locate.Measurement
	for _, a := range anchors {
		// In the simulation the ranging delay comes straight from the
		// geometry; a real reader would measure the first-arrival
		// round-trip time at each anchor.
		ms = append(ms, locate.Measurement{Anchor: a, Delay: target.Dist(a) / speed, Speed: speed})
	}
	return locate.Solve(ms, s)
}

func locateAnchors(s *geometry.Structure) []geometry.Vec3 {
	if s.Shape == geometry.Cylinder {
		r := s.Diameter / 2
		return []geometry.Vec3{
			{X: r, Y: 0.2, Z: 0}, {X: -r, Y: s.Height / 2, Z: 0},
			{X: 0, Y: s.Height - 0.2, Z: r}, {X: 0, Y: s.Height / 3, Z: -r},
		}
	}
	y := s.Height / 2
	return []geometry.Vec3{
		{X: 0.2, Y: y - s.Height/4, Z: 0},
		{X: s.Length / 3, Y: y + s.Height/4, Z: 0},
		{X: s.Length / 2, Y: y, Z: s.Thickness},
		{X: s.Length / 4, Y: y - s.Height/8, Z: s.Thickness},
	}
}

func pickStructure(name string) *geometry.Structure {
	switch name {
	case "slab":
		return geometry.Slab()
	case "column":
		return geometry.Column()
	case "protective":
		return geometry.ProtectiveWall()
	default:
		return geometry.CommonWall()
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := runTrace(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		nCapsules = flag.Int("capsules", 5, "number of capsules to cast into the structure")
		voltage   = flag.Float64("voltage", 200, "initial drive voltage (V)")
		structure = flag.String("structure", "wall", "structure: wall|slab|column|protective")
	)
	flag.Parse()

	s := pickStructure(*structure)
	cast, err := core.NewCasting(s)
	if err != nil {
		fatal(err)
	}
	for _, n := range core.PlanGrid(s, *nCapsules, 0x10, 42) {
		if err := cast.Mix(n); err != nil {
			fatal(fmt.Errorf("mixing capsule %#04x: %w", n.Handle(), err))
		}
	}
	report := cast.Seal()
	fmt.Printf("cast %s with %d capsule(s); CT check: %d intact, %.4f%% volume fraction\n",
		s.Name, report.Capsules, report.IntactShells, report.VolumeFraction*100)

	tx := geometry.Vec3{X: 0.1, Y: s.Height / 2, Z: 0}
	if s.Shape == geometry.Cylinder {
		tx = geometry.Vec3{X: 0, Y: 0.05, Z: s.Diameter / 2}
	}
	r, err := cast.AttachReader(reader.Config{
		TXPosition:   tx,
		DriveVoltage: *voltage,
		Seed:         42,
	})
	if err != nil {
		fatal(err)
	}
	r.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
		return sensors.Environment{
			TemperatureC:     26 + pos.X/10,
			RelativeHumidity: 68,
			StrainX:          40e-6, StrainY: 25e-6,
			AccelerationMS2: 0.004, StressMPa: -55,
		}
	})
	fmt.Printf("reader attached at %.1f V; type 'help' for commands\n", r.DriveVoltage())

	var inj *faultinject.Injector
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "help":
			fmt.Println("commands: charge [s] | inventory | read <handle> <temp|strain|accel> | locate <handle> | cadence <handle> | voltage <V> | status | faults <loss> <corrupt> [seed] | faults off | faultstats | quit")
		case "faults":
			if len(fields) >= 2 && fields[1] == "off" {
				inj = nil
				r.SetFrameFaults(nil)
				fmt.Println("fault injection disabled")
				break
			}
			if len(fields) < 3 {
				fmt.Println("usage: faults <lossProb> <corruptProb> [seed] | faults off")
				break
			}
			loss, err1 := strconv.ParseFloat(fields[1], 64)
			corrupt, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				fmt.Println("probabilities must be numbers in [0,1]")
				break
			}
			seed := int64(1)
			if len(fields) > 3 {
				if v, err := strconv.ParseInt(fields[3], 10, 64); err == nil {
					seed = v
				}
			}
			in, err := faultinject.New(faultinject.Plan{
				Seed: seed, FrameLossProb: loss, FrameCorruptProb: corrupt,
			})
			if err != nil {
				fmt.Printf("rejected: %v\n", err)
				break
			}
			inj = in
			r.SetFrameFaults(inj)
			fmt.Printf("injecting: %.0f%% frame loss, %.0f%% corruption (seed %d)\n",
				loss*100, corrupt*100, seed)
		case "faultstats":
			fs := r.FaultStats()
			fmt.Printf("reader: %d corrupted replies, %d retries, %s backoff\n",
				fs.CorruptedReplies, fs.Retries, fs.Backoff)
			if inj != nil {
				st := inj.Stats()
				fmt.Printf("injector: downlink %d dropped/%d corrupted, uplink %d dropped/%d corrupted, %d brownouts\n",
					st.DownlinkDropped, st.DownlinkCorrupted, st.UplinkDropped, st.UplinkCorrupted, st.Brownouts)
			} else {
				fmt.Println("injector: not installed")
			}
		case "locate":
			if len(fields) < 2 {
				fmt.Println("usage: locate <handle>")
				break
			}
			h, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 16)
			if err != nil {
				fmt.Printf("bad handle: %v\n", err)
				break
			}
			res, err := locateCapsule(s, r, uint16(h))
			if err != nil {
				fmt.Printf("locate failed: %v\n", err)
				break
			}
			fmt.Printf("capsule %#04x estimated at (%.2f, %.2f, %.2f) m, residual %.3f m\n",
				h, res.Position.X, res.Position.Y, res.Position.Z, res.RMSResidual)
		case "cadence":
			if len(fields) < 2 {
				fmt.Println("usage: cadence <handle>")
				break
			}
			h, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 16)
			if err != nil {
				fmt.Printf("bad handle: %v\n", err)
				break
			}
			amp, err := r.NodeAmplitude(uint16(h))
			if err != nil {
				fmt.Printf("cadence failed: %v\n", err)
				break
			}
			budget := energy.Budget{Harvester: energy.DefaultHarvester(), MCU: energy.DefaultMCUPower()}
			plan, err := energy.PlanDutyCycle(budget, energy.DefaultReportCost(), amp)
			if err != nil {
				fmt.Printf("cadence: %v (PZT amplitude %.2f V)\n", err, amp)
				break
			}
			if plan.Continuous {
				fmt.Printf("capsule %#04x: continuous operation at %.2f V\n", h, amp)
			} else {
				fmt.Printf("capsule %#04x: one report every %.1f s (%.0f/day) at %.2f V\n",
					h, plan.Period, plan.ReportsPerDay(), amp)
			}
		case "charge":
			dur := 0.5
			if len(fields) > 1 {
				if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
					dur = v
				}
			}
			up := r.Charge(dur)
			fmt.Printf("charged %.1f s: %d capsule(s) powered up\n", dur, up)
		case "inventory":
			res := r.Inventory(16)
			fmt.Printf("discovered %d capsule(s) in %d round(s), %d collision(s):",
				len(res.Discovered), res.Rounds, res.Collisions)
			for _, h := range res.Discovered {
				fmt.Printf(" %#04x", h)
			}
			fmt.Println()
		case "read":
			if len(fields) < 3 {
				fmt.Println("usage: read <handle> <temp|strain|accel>")
				break
			}
			h, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 16)
			if err != nil {
				fmt.Printf("bad handle: %v\n", err)
				break
			}
			var st sensors.SensorType
			switch fields[2] {
			case "temp":
				st = sensors.TypeTempHumidity
			case "strain":
				st = sensors.TypeStrain
			case "accel":
				st = sensors.TypeAccelerometer
			default:
				fmt.Println("sensor must be temp|strain|accel")
				continue
			}
			vals, err := r.ReadSensor(uint16(h), st)
			if err != nil {
				fmt.Printf("read failed: %v\n", err)
				break
			}
			switch st {
			case sensors.TypeTempHumidity:
				fmt.Printf("capsule %#04x: %.2f °C, %.1f %%RH\n", h, vals[0], vals[1])
			case sensors.TypeStrain:
				fmt.Printf("capsule %#04x: strain X %.1f µε, Y %.1f µε\n", h, vals[0]*1e6, vals[1]*1e6)
			case sensors.TypeAccelerometer:
				fmt.Printf("capsule %#04x: %.4f m/s², %.1f MPa\n", h, vals[0], vals[1])
			}
		case "voltage":
			if len(fields) < 2 {
				fmt.Println("usage: voltage <V>")
				break
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				fmt.Printf("bad voltage: %v\n", err)
				break
			}
			if err := r.SetDriveVoltage(v); err != nil {
				fmt.Printf("rejected: %v\n", err)
				break
			}
			fmt.Printf("drive voltage now %.0f V\n", r.DriveVoltage())
		case "status":
			for _, n := range r.Nodes() {
				amp, _ := r.NodeAmplitude(n.Handle())
				fmt.Printf("capsule %#04x at %+v: %v (PZT %.2f V)\n",
					n.Handle(), n.Position(), n.State(), amp)
			}
		case "quit", "exit":
			return
		default:
			fmt.Printf("unknown command %q (try 'help')\n", fields[0])
		}
		fmt.Print("> ")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ecoreader: %v\n", err)
	os.Exit(1)
}
