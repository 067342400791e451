package reader

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecocapsule/internal/geometry"
	"ecocapsule/internal/sensors"
)

// decodeOutcomes runs the decode-outcome corpus through the waveform read
// path and renders every result, values as hex floats: at 1 and 2 kbps, for
// reader seeds 1–4, four capsules on the common wall read in three full
// rounds, one single-capsule strain round and four one-slot reads — 17
// results per (bitrate, seed), 136 in all.
func decodeOutcomes(t *testing.T) string {
	t.Helper()
	handles, xs := []uint16{0x41, 0x42, 0x43, 0x44}, []float64{0.6, 0.8, 1.5, 1.0}
	var b strings.Builder
	emit := func(bitrate float64, seed int64, step string, res AcousticReadResult) {
		fmt.Fprintf(&b, "%.0f %d %-7s %#04x %x %v\n", bitrate, seed, step, res.Handle, res.Values, res.Err)
	}
	for _, bitrate := range []float64{1000, 2000} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := wallConfig()
			cfg.Seed = seed
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.SetEnvironment(func(pos geometry.Vec3) sensors.Environment {
				return sensors.Environment{TemperatureC: 18 + 4*pos.X, RelativeHumidity: 55, StrainX: 80e-6, StrainY: -30e-6}
			})
			for i, h := range handles {
				deployNode(t, r, h, xs[i])
			}
			if up := r.Charge(0.3); up != len(handles) {
				t.Fatalf("%.0f bit/s seed %d: %d/%d nodes powered up", bitrate, seed, up, len(handles))
			}
			acfg := DefaultAcousticConfig()
			acfg.UplinkBitrate = bitrate
			for round := 0; round < 3; round++ {
				for _, res := range r.AcousticReadRound(handles, sensors.TypeTempHumidity, acfg) {
					emit(bitrate, seed, fmt.Sprintf("round%d", round), res)
				}
			}
			for _, res := range r.AcousticReadRound(handles[2:3], sensors.TypeStrain, acfg) {
				emit(bitrate, seed, "strain", res)
			}
			for _, h := range handles {
				emit(bitrate, seed, "single", r.AcousticReadRound([]uint16{h}, sensors.TypeTempHumidity, acfg)[0])
			}
		}
	}
	return b.String()
}

// TestDecodeOutcomesGolden pins what the waveform read path decodes — every
// value bit and every error — to a golden file, so a receiver change that
// alters any decode outcome on the corpus fails here. Regenerate with:
// go test ./internal/reader -run TestDecodeOutcomesGolden -update
func TestDecodeOutcomesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("136 waveform-level reads; run without -short to exercise them")
	}
	got := decodeOutcomes(t)
	golden := filepath.Join("testdata", "decode_outcomes.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("decode outcomes diverged from golden file\n--- got\n%s--- want\n%s", got, want)
	}
}
