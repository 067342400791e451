package node

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"ecocapsule/internal/geometry"
	"ecocapsule/internal/material"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/units"
)

// TestNodeStateMachineNeverPanicsProperty drives a node with random
// command sequences and excitation swings: whatever arrives, the state
// machine must stay inside its state set and never panic.
func TestNodeStateMachineNeverPanicsProperty(t *testing.T) {
	cs := material.UHPC().VS()
	f := func(seed int64, script []byte) bool {
		n := New(Config{Handle: 0x99, Position: geometry.Vec3{X: 1, Y: 1, Z: 0.1}, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		for _, op := range script {
			switch op % 5 {
			case 0: // strong excitation
				n.Excite(0.5+2*rng.Float64(), 230*units.KHz, cs, units.MS)
			case 1: // brown-out
				n.Excite(0.01*rng.Float64(), 230*units.KHz, cs, units.MS)
			default: // a random command with random addressing/payload
				cmd := protocol.Command(1 + rng.Intn(8)) // includes one invalid opcode
				target := protocol.Broadcast
				if rng.Intn(2) == 0 {
					target = uint16(rng.Intn(0x100))
				}
				var payload []byte
				if rng.Intn(2) == 0 {
					payload = []byte{byte(rng.Intn(8))}
				}
				_, _, _ = n.HandleDownlink(protocol.Packet{Cmd: cmd, Target: target, Payload: payload}, sensors.Environment{}, nil)
			}
			switch n.State() {
			case Dormant, ColdStarting, Standby, Arbitrating, Replying:
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestNodeRepliesAtMostOncePerRoundProperty: whatever the random QueryRep
// pattern, a node replies at most once between a Query and the next
// Query/Ack/Sleep.
func TestNodeRepliesAtMostOncePerRoundProperty(t *testing.T) {
	cs := material.UHPC().VS()
	f := func(seed int64, reps uint8) bool {
		n := New(Config{Handle: 0x05, Position: geometry.Vec3{X: 1, Y: 1, Z: 0.1}, Seed: seed})
		for i := 0; i < 1000 && !n.PoweredUp(); i++ {
			n.Excite(2.0, 230*units.KHz, cs, units.MS)
		}
		if !n.PoweredUp() {
			return false
		}
		replies := 0
		_, ok, err := n.HandleDownlink(protocol.Packet{
			Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{3},
		}, sensors.Environment{}, nil)
		if err != nil {
			return false
		}
		if ok {
			replies++
		}
		for i := 0; i < int(reps%32); i++ {
			_, ok, err = n.HandleDownlink(protocol.Packet{
				Cmd: protocol.CmdQueryRep, Target: protocol.Broadcast,
			}, sensors.Environment{}, nil)
			if err != nil {
				return false
			}
			if ok {
				replies++
			}
		}
		return replies <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestNodeConcurrentAccess exercises the node's mutex under parallel
// excitation, commands, and reads (run with -race).
func TestNodeConcurrentAccess(t *testing.T) {
	n := New(Config{Handle: 0x07, Position: geometry.Vec3{X: 1, Y: 1, Z: 0.1}, Seed: 7})
	cs := material.UHPC().VS()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (i + id) % 4 {
				case 0:
					n.Excite(2.0, 230*units.KHz, cs, units.MS)
				case 1:
					_, _, _ = n.HandleDownlink(protocol.Packet{
						Cmd: protocol.CmdQuery, Target: protocol.Broadcast, Payload: []byte{2},
					}, sensors.Environment{}, nil)
				case 2:
					_ = n.State()
				case 3:
					_, _ = n.Stats()
					_ = n.PowerDraw(1000)
				}
			}
		}(w)
	}
	wg.Wait()
}
