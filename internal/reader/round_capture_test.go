package reader

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/dsp"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/keyrand"
	"ecocapsule/internal/phy"
	"ecocapsule/internal/physics"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/waveform"
)

// roundCaptureOracle assembles a round's capture the straightforward way:
// each slot's reception into its own buffer, a capture filled with the
// leakage, every reception summed onto it in slot order and clipped to
// its length, the AGC scale as its own pass, and the noise drawn from
// math/rand/v2's NormFloat64 over keyrand's stream. roundCapture must
// match it bit for bit.
func roundCaptureOracle(r *Reader, syn *waveform.Synth, btx *phy.BackscatterTX, plans []slotPlan, slots []phy.Slot, cfg AcousticConfig, seed int64) ([]float64, []error) {
	last := slots[len(slots)-1]
	total := last.Start + last.Len
	incident := r.roundCarrier(syn, total)
	lead := syn.Samples(acousticLead)
	rx := make([][]float64, len(plans))
	errs := make([]error, len(plans))
	for s, p := range plans {
		bs, err := btx.ModulateInto(nil, p.bits, incident[slots[s].Start+lead:])
		if err != nil {
			errs[s] = err
			continue
		}
		rx[s] = p.ch.TransmitInto(nil, bs)
	}
	capture := make([]float64, total)
	if cfg.LeakageGain > 0 {
		for i := range capture {
			capture[i] = cfg.LeakageGain * incident[i]
		}
	}
	for s := range plans {
		base := slots[s].Start + lead
		for i, v := range rx[s] {
			if base+i >= len(capture) {
				break
			}
			capture[base+i] += v
		}
	}
	if peak := dsp.MaxAbs(capture); peak > 0 {
		scale := 1.0 / peak
		for i := range capture {
			capture[i] *= scale
		}
	}
	if cfg.NoiseSigma > 0 {
		rng := rand.New(keyrand.New(uint64(seed)))
		for i := range capture {
			capture[i] += rng.NormFloat64() * cfg.NoiseSigma
		}
	}
	return capture, errs
}

// TestRoundCaptureMatchesOracle: receptions transmitted straight into the
// capture, leakage and peak taken per slot, and the AGC scale fused with
// the noise give the oracle's capture bit for bit — at leakage 0 and 0.4,
// noise σ 0 and 0.01, 1–4 slots, and with a slot whose modulation fails.
// One set of round buffers serves every case, so each round also starts
// from the previous round's stale capture. The links carry no noise floor,
// so transmitting a slot twice draws nothing from its channel.
func TestRoundCaptureMatchesOracle(t *testing.T) {
	handles, xs := []uint16{0x41, 0x42, 0x43, 0x44}, []float64{0.6, 0.8, 1.5, 1.1}
	r := roundReader(t, handles, xs)
	bufs := new(roundBufs)
	run := func(name string, k int, cfg AcousticConfig, fail int) {
		t.Helper()
		out := make([]AcousticReadResult, k)
		plans, seed := r.planRound(handles[:k], sensors.TypeTempHumidity, out)
		if len(plans) != k {
			t.Fatalf("%s: %d of %d slots planned", name, len(plans), k)
		}
		if fail >= 0 {
			plans[fail].bits = append([]byte{2}, plans[fail].bits...) // not an FM0 bit
		}
		syn := waveform.NewSynth(cfg.SampleRate)
		btx := phy.NewBackscatterTX(cfg.SampleRate)
		btx.Bitrate = cfg.UplinkBitrate
		slots := layoutRound(syn, btx.Bitrate, plans)
		wantCap, wantErrs := roundCaptureOracle(r, syn, btx, plans, slots, cfg, seed)
		errs := r.roundCapture(bufs, syn, btx, plans, slots, cfg, seed)
		for s := range plans {
			if (errs[s] == nil) != (wantErrs[s] == nil) || (s == fail) != (errs[s] != nil) {
				t.Fatalf("%s slot %d: error %v, oracle %v", name, s, errs[s], wantErrs[s])
			}
		}
		got := bufs.capture
		if len(got) != len(wantCap) {
			t.Fatalf("%s: capture of %d samples, oracle %d", name, len(got), len(wantCap))
		}
		for i := range wantCap {
			if math.Float64bits(got[i]) != math.Float64bits(wantCap[i]) {
				t.Fatalf("%s: sample %d is %v, oracle %v", name, i, got[i], wantCap[i])
			}
		}
	}
	for _, leak := range []float64{0, 0.4} {
		for _, sigma := range []float64{0, 0.01} {
			cfg := roundConfig()
			cfg.LeakageGain, cfg.NoiseSigma = leak, sigma
			for k := 1; k <= len(handles); k++ {
				run(fmt.Sprintf("leak %g σ %g %d slots", leak, sigma, k), k, cfg, -1)
			}
			run(fmt.Sprintf("leak %g σ %g, slot 1 of 3 fails", leak, sigma), 3, cfg, 1)
		}
	}
}

// TestSlotReceptionsEndInsideWindows: every slot's reception — the
// modulated frame, lead in by acousticLead, lengthened by the channel's
// impulse response — ends inside its own slot window, on both walls, at
// 0.5–5.0 m from the transmitter, at 500, 1000 and 2000 bps and at
// reflection orders 1 and 3. roundCapture transmits each reception into
// a capacity-capped view of its window, so this is what keeps the legs'
// writes in place and disjoint. A one-sample probe transmit measures the
// channel's lengthening without convolving whole frames.
func TestSlotReceptionsEndInsideWindows(t *testing.T) {
	payload := protocol.UplinkFrame{Handle: 0x41, Kind: byte(sensors.TypeTempHumidity), Data: make([]byte, 4)}.Bits()
	bits := phy.PrependPilot(payload)
	cfg := DefaultAcousticConfig()
	syn := waveform.NewSynth(cfg.SampleRate)
	lead := syn.Samples(acousticLead)
	carrier := syn.CBW(physics.CarrierHz, 1, 1)
	minSlack := math.MaxInt
	for _, wall := range []*geometry.Structure{geometry.CommonWall(), geometry.ProtectiveWall()} {
		for _, order := range []int{1, 3} {
			for cm := 50; cm <= 500; cm += 10 {
				tx := wallConfig().TXPosition
				dst := geometry.Vec3{X: tx.X + float64(cm)/100, Y: tx.Y, Z: wall.Thickness / 2}
				ch, err := channel.New(linkConfig(wall, tx, dst, 1, order))
				if err != nil {
					t.Fatal(err)
				}
				ext := len(ch.TransmitInto(nil, []float64{1})) - 1
				plan := slotPlan{ch: ch, payload: payload, bits: bits}
				for _, bitrate := range []float64{500, 1000, 2000} {
					btx := phy.NewBackscatterTX(cfg.SampleRate)
					btx.Bitrate = bitrate
					bs, err := btx.ModulateInto(nil, bits, carrier)
					if err != nil {
						t.Fatal(err)
					}
					slot := layoutRound(syn, bitrate, []slotPlan{plan})[0]
					slack := slot.Len - (lead + len(bs) + ext)
					if slack < 0 {
						t.Errorf("%s order %d, %.1f m, %g bps: reception ends %d samples past its window", wall.Name, order, float64(cm)/100, bitrate, -slack)
					}
					minSlack = min(minSlack, slack)
				}
			}
		}
	}
	t.Logf("smallest slack between a reception's end and its window's: %d samples", minSlack)
}
