package fleet

import (
	"math"
	"testing"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/telemetry"
	"ecocapsule/internal/units"
)

// TestCityLinkGainsMatchEagerChannels: every link of the 3000-capsule city
// fleet drives its capsule at the amplitude an eagerly built channel of the
// same link gives, bit for bit, and each deployed link is counted once on
// ecocapsule_channel_links_total, the figure pipebench reports as the
// city's channel.cache_entries.
func TestCityLinkGainsMatchEagerChannels(t *testing.T) {
	const capsules, seed = 3000, 5
	linksCounted := func() float64 {
		for _, fam := range telemetry.Default().Snapshot() {
			if fam.Name == "ecocapsule_channel_links_total" {
				return fam.Series[0].Value
			}
		}
		return 0
	}
	before := linksCounted()
	f, err := NewCityFleet(capsules, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	counted := linksCounted() - before
	_, plan, _, err := cityDeployment(capsules, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	links := 0
	for i, r := range f.readers {
		for _, n := range r.Nodes() {
			h := n.Handle()
			ch, err := channel.New(channel.Config{
				Structure:        f.structure,
				Source:           plan.Stations[i].Position,
				Destination:      n.Position(),
				CarrierFrequency: physics.CarrierHz,
				PrismAngle:       units.Deg2Rad(physics.PrismAngleDeg),
				Seed:             seed + int64(i) + int64(h),
				MaxOrder:         1,
			})
			if err != nil {
				t.Fatalf("station %d, capsule %#04x: %v", i, h, err)
			}
			got, err := r.NodeAmplitude(h)
			if err != nil {
				t.Fatal(err)
			}
			want := r.DriveVoltage() * ch.PathGain() * reader.DefaultPZTCoupling
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("station %d, capsule %#04x: amplitude %x, eager channel %x", i, h, got, want)
			}
			links++
		}
	}
	if links != 16318 || counted != float64(links) {
		t.Errorf("%d links deployed and %.0f counted, want 16318 of each", links, counted)
	}
}
