package node

import (
	"testing"

	"ecocapsule/internal/geometry"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/units"
)

// TestExciteForMatchesRepeatedExcite pins the batched charge (ChargeFor)
// against the tick-by-tick path (Excite at the operating carrier) across
// the interesting regimes: an amplitude that boots the node, one below the
// activation threshold, and a power loss from standby. After any duration
// the two nodes must agree on state and delivered amplitude. A duration
// shorter than one tick still runs one.
func TestExciteForMatchesRepeatedExcite(t *testing.T) {
	const (
		cs = 2500.0
		dt = 1 * units.MS
	)
	for _, tc := range []struct {
		name  string
		vin   float64
		steps int
	}{
		{"boots", 0.8, 400},
		{"boots-exact-budget", 0.8, 40},
		{"below-threshold", 0.001, 400},
		{"marginal", 0.05, 400},
		{"zero", 0, 100},
		{"sub-tick", 0.8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(Config{Handle: 1, Position: geometry.Vec3{X: 1}, Seed: 9})
			b := New(Config{Handle: 1, Position: geometry.Vec3{X: 1}, Seed: 9})
			for i := 0; i < max(tc.steps, 1); i++ {
				a.Excite(tc.vin, physics.CarrierHz, cs, dt)
			}
			b.ChargeFor(tc.vin, cs, float64(tc.steps)*dt)
			if a.State() != b.State() {
				t.Fatalf("state: serial %v, batched %v", a.State(), b.State())
			}
			if a.Vin() != b.Vin() {
				t.Fatalf("vin: serial %g, batched %g", a.Vin(), b.Vin())
			}
			if a.PoweredUp() != b.PoweredUp() {
				t.Fatalf("powered: serial %v, batched %v", a.PoweredUp(), b.PoweredUp())
			}
		})
	}
}

// TestExciteForPowerLossDropsNode covers the running-state branch: a node
// brought to standby then batch-charged at a dead amplitude must fall back
// to dormant exactly like the serial path.
func TestExciteForPowerLossDropsNode(t *testing.T) {
	const (
		cs = 2500.0
		dt = 1 * units.MS
	)
	a := New(Config{Handle: 2, Seed: 3})
	b := New(Config{Handle: 2, Seed: 3})
	for i := 0; i < 400; i++ {
		a.Excite(0.8, physics.CarrierHz, cs, dt)
	}
	b.ChargeFor(0.8, cs, 400*dt)
	if !a.PoweredUp() || !b.PoweredUp() {
		t.Fatalf("precondition: nodes not powered (serial %v batched %v)", a.State(), b.State())
	}
	for i := 0; i < 10; i++ {
		a.Excite(0, physics.CarrierHz, cs, dt)
	}
	b.ChargeFor(0, cs, 10*dt)
	if a.State() != b.State() {
		t.Fatalf("after power loss: serial %v, batched %v", a.State(), b.State())
	}
	if b.PoweredUp() {
		t.Fatal("batched node still powered at zero amplitude")
	}
}
