package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"ecocapsule/internal/sensors"
)

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{FrameLossProb: -0.1},
		{FrameCorruptProb: 1.5},
		{BitFlipBER: 2},
		{BrownoutProb: -1},
		{FrameLossProb: math.NaN()},
		{ConnDropAfterFrames: -3},
		{DeadStations: []int{-1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d must fail validation: %+v", i, p)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan must validate: %v", err)
	}
	if _, err := New(Plan{BitFlipBER: 7}); err == nil {
		t.Error("New must reject an invalid plan")
	}
}

// TestInjectorDeterministic: two injectors with the same plan make
// identical decisions over identical call sequences.
func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, FrameLossProb: 0.2, FrameCorruptProb: 0.3, BitFlipBER: 0.01, BrownoutProb: 0.1}
	a := MustNew(plan)
	b := MustNew(plan)
	frame := []byte{0xAA, 0x3C, 0x01, 0xFF, 0xFF, 0x00, 0x12, 0x34}
	for i := 0; i < 500; i++ {
		fa, oka := a.Downlink(uint16(i), frame)
		fb, okb := b.Downlink(uint16(i), frame)
		if oka != okb || !bytes.Equal(fa, fb) {
			t.Fatalf("call %d diverged: (%v,%x) vs (%v,%x)", i, oka, fa, okb, fb)
		}
		if a.Brownout(uint16(i)) != b.Brownout(uint16(i)) {
			t.Fatalf("brownout draw %d diverged", i)
		}
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestKeyedDrawsIndependentOfInterleaving: a handle's decisions depend only
// on its own sequence of hook calls, so interleaving two handles on one
// goroutine and running each on its own goroutine decide identically.
func TestKeyedDrawsIndependentOfInterleaving(t *testing.T) {
	plan := Plan{Seed: 42, FrameLossProb: 0.2, FrameCorruptProb: 0.3, BitFlipBER: 0.01, BrownoutProb: 0.1}
	frame := []byte{0xAA, 0x3C, 0x01, 0xFF, 0xFF, 0x00, 0x12, 0x34}
	handles := []uint16{0x10, 0x11}
	const calls = 300
	// call makes one delivery's hook calls and renders their decisions.
	call := func(in *Injector, h uint16) string {
		down, okD := in.Downlink(h, frame)
		up, okU := in.Uplink(h, frame)
		return fmt.Sprintf("%v %v %x %v %x", in.Brownout(h), okD, down, okU, up)
	}
	interleaved := MustNew(plan)
	want := make([][]string, len(handles))
	for i := 0; i < calls; i++ {
		for k, h := range handles {
			want[k] = append(want[k], call(interleaved, h))
		}
	}
	split := MustNew(plan)
	type run struct {
		k         int
		decisions []string
	}
	done := make(chan run, len(handles))
	for k, h := range handles {
		go func(k int, h uint16) {
			var out []string
			for i := 0; i < calls; i++ {
				out = append(out, call(split, h))
			}
			done <- run{k, out}
		}(k, h)
	}
	got := make([][]string, len(handles))
	for range handles {
		r := <-done
		got[r.k] = r.decisions
	}
	for k, h := range handles {
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("handle %#04x call %d: split %q, interleaved %q", h, i, got[k][i], want[k][i])
			}
		}
	}
	if interleaved.Stats() != split.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", interleaved.Stats(), split.Stats())
	}
	if s := split.Stats(); s.DownlinkDropped == 0 || s.UplinkCorrupted == 0 || s.Brownouts == 0 {
		t.Errorf("plan exercised too few decisions: %+v", s)
	}
}

// TestInjectorNeverMutatesInput: corruption must copy, not scribble on the
// caller's frame.
func TestInjectorNeverMutatesInput(t *testing.T) {
	in := MustNew(Plan{Seed: 7, FrameCorruptProb: 1, BitFlipBER: 0.1})
	frame := []byte{1, 2, 3, 4, 5, 6}
	orig := append([]byte(nil), frame...)
	for i := 0; i < 200; i++ {
		out, ok := in.Uplink(0x10, frame)
		if !bytes.Equal(frame, orig) {
			t.Fatal("injector mutated the input frame")
		}
		if ok && bytes.Equal(out, orig) {
			t.Fatal("FrameCorruptProb=1 must flip at least one bit")
		}
	}
	if s := in.Stats(); s.UplinkCorrupted == 0 {
		t.Errorf("expected corrupted uplinks, stats %+v", s)
	}
}

func TestInjectorRates(t *testing.T) {
	in := MustNew(Plan{Seed: 1, FrameLossProb: 0.5})
	frame := make([]byte, 16)
	delivered := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if _, ok := in.Downlink(0, frame); ok {
			delivered++
		}
	}
	if delivered < n/2-150 || delivered > n/2+150 {
		t.Errorf("50%% loss delivered %d/%d", delivered, n)
	}
}

func TestMutedAndDeadAndStuck(t *testing.T) {
	in := MustNew(Plan{MutedCapsules: []uint16{0x22}, DeadStations: []int{1}, StuckSensors: []uint16{0x30}})
	if _, ok := in.Uplink(0x22, []byte{1}); ok {
		t.Error("muted capsule's uplink must drop")
	}
	if _, ok := in.Uplink(0x23, []byte{1}); !ok {
		t.Error("unmuted capsule's uplink must pass")
	}
	if !in.StationDead(1) || in.StationDead(0) {
		t.Error("station liveness wrong")
	}
	if !in.SensorStuck(0x30) || in.SensorStuck(0x31) {
		t.Error("stuck-sensor set wrong")
	}
}

func TestBackoffBoundedExponential(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 60 * time.Millisecond, Factor: 2, MaxAttempts: 5}
	want := []time.Duration{10, 20, 40, 60, 60}
	for i, w := range want {
		if d := b.Delay(i); d != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i, d, w*time.Millisecond)
		}
	}
	if b.Delay(-3) != 10*time.Millisecond {
		t.Error("negative attempt must clamp to Base")
	}
	if got := b.Budget(); got != 190*time.Millisecond {
		t.Errorf("Budget() = %v, want 190ms", got)
	}
	// A zero Factor must not collapse the schedule.
	z := Backoff{Base: time.Millisecond, Max: time.Second, MaxAttempts: 2}
	if z.Delay(1) <= z.Delay(0) {
		t.Error("default factor must grow the delay")
	}
}

func TestStuckSensorFreezes(t *testing.T) {
	s := Freeze(sensors.NewStrain(3))
	if s.Type() != sensors.TypeStrain {
		t.Fatalf("type = %v", s.Type())
	}
	if s.PowerDraw() <= 0 {
		t.Error("stuck sensor still draws power")
	}
	first := s.AppendSample(nil, sensors.Environment{StrainX: 100e-6, StrainY: 50e-6})
	second := s.AppendSample(nil, sensors.Environment{StrainX: 900e-6, StrainY: 400e-6})
	if !bytes.Equal(first, second) {
		t.Error("stuck sensor must replay its first reading")
	}
}

func TestFlakyRWDropsAfterBudget(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("abcdef")
	f := NewFlakyRW(&buf, 2, 1)
	p := make([]byte, 1)
	for i := 0; i < 2; i++ {
		if _, err := f.Read(p); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if _, err := f.Read(p); !errors.Is(err, ErrInjectedDrop) {
		t.Errorf("third read: %v, want ErrInjectedDrop", err)
	}
	if _, err := f.Write([]byte{1}); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if _, err := f.Write([]byte{1}); !errors.Is(err, ErrInjectedDrop) {
		t.Errorf("second write: %v, want ErrInjectedDrop", err)
	}
	// Unlimited directions never fail.
	h := NewFlakyRW(&buf, -1, -1)
	for i := 0; i < 10; i++ {
		if _, err := h.Write([]byte{1}); err != nil {
			t.Fatalf("healthy write: %v", err)
		}
	}
}
