package coding

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPIEValidate(t *testing.T) {
	if err := DefaultPIE().Validate(); err != nil {
		t.Fatalf("default PIE invalid: %v", err)
	}
	bad := []PIEConfig{
		{PW: 0, HighZero: 1, HighOne: 2},
		{PW: 1, HighZero: -1, HighOne: 2},
		{PW: 1, HighZero: 2, HighOne: 2},
		{PW: 1, HighZero: 3, HighOne: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPIEPowerFractions(t *testing.T) {
	// §3.3: equal high/low for bit 0 guarantees ≥50 % of peak power; with
	// HighOne = 3·HighZero a balanced random stream delivers ≈63..67 %.
	c := DefaultPIE()
	if got := c.MinPowerFraction(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("min power fraction = %g, want 0.5", got)
	}
	mean := c.MeanPowerFraction()
	if mean < 0.6 || mean > 0.7 {
		t.Errorf("mean power fraction = %g, want ≈0.63–0.67", mean)
	}
}

// decodePIEEdges is the PIE round-trip oracle: it decodes a full edge
// sequence by keeping the high intervals and dropping the low pulses.
func decodePIEEdges(c PIEConfig, edges []Edge) []byte {
	var highs []float64
	for _, e := range edges {
		if e.High {
			highs = append(highs, e.Duration)
		}
	}
	return c.Decode(highs)
}

// fm0TransitionValid checks the FM0 invariant on clean half-symbol levels:
// the sign always inverts between the last half of one symbol and the first
// half of the next.
func fm0TransitionValid(halves []float64) bool {
	for i := 2; i < len(halves); i += 2 {
		if halves[i-1]*halves[i] > 0 {
			return false
		}
	}
	return true
}

func TestPIEEncodeDecodeRoundTrip(t *testing.T) {
	c := DefaultPIE()
	bits := []byte{0, 1, 1, 0, 1, 0, 0, 0, 1}
	edges, err := c.Encode(bits)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2*len(bits) {
		t.Fatalf("edge count %d, want %d", len(edges), 2*len(bits))
	}
	// Every symbol: high then low-PW.
	for i := 0; i < len(edges); i += 2 {
		if !edges[i].High || edges[i+1].High {
			t.Fatalf("symbol %d malformed", i/2)
		}
		if edges[i+1].Duration != c.PW {
			t.Fatalf("symbol %d PW = %g", i/2, edges[i+1].Duration)
		}
	}
	got := decodePIEEdges(c, edges)
	if !bytes.Equal(got, bits) {
		t.Errorf("round trip failed: got %v want %v", got, bits)
	}
}

func TestPIEEncodeRejectsBadBits(t *testing.T) {
	if _, err := DefaultPIE().Encode([]byte{0, 2}); err == nil {
		t.Error("expected error for bit value 2")
	}
}

func TestPIEDecodeWithJitter(t *testing.T) {
	// The timer-interrupt decoder must tolerate duration jitter well below
	// the 0/1 threshold.
	c := DefaultPIE()
	rng := rand.New(rand.NewSource(3))
	bits := make([]byte, 200)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	highs := make([]float64, len(bits))
	for i, b := range bits {
		d := c.HighZero
		if b == 1 {
			d = c.HighOne
		}
		highs[i] = d * (1 + 0.2*(rng.Float64()-0.5)) // ±10 % jitter
	}
	if !bytes.Equal(c.Decode(highs), bits) {
		t.Error("PIE decode must survive ±10 % timing jitter")
	}
}

func TestPIEDurationAndRoundTripProperty(t *testing.T) {
	c := DefaultPIE()
	f := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, v := range raw {
			bits[i] = v & 1
		}
		edges, err := c.Encode(bits)
		if err != nil {
			return false
		}
		var total float64
		for _, e := range edges {
			total += e.Duration
		}
		if math.Abs(total-c.Duration(bits)) > 1e-12 {
			return false
		}
		return bytes.Equal(decodePIEEdges(c, edges), bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFM0EncodeKnownPattern(t *testing.T) {
	// Starting level +1: bit 0 → (+1,−1) then next level +1;
	// bit 1 → (+1,+1) then next level −1.
	got, err := FM0Encode([]byte{0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -1, 1, 1, -1, -1, 1, -1}
	if len(got) != len(want) {
		t.Fatalf("len %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("half %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestFM0BoundaryInversionInvariant(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, v := range raw {
			bits[i] = v & 1
		}
		halves, err := FM0Encode(bits)
		if err != nil {
			return false
		}
		return fm0TransitionValid(halves)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFM0EncodeRejectsBadBits(t *testing.T) {
	if _, err := FM0Encode([]byte{3}); err == nil {
		t.Error("expected error for invalid bit")
	}
}

func TestFM0HardDecodeRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, v := range raw {
			bits[i] = v & 1
		}
		halves, _ := FM0Encode(bits)
		return bytes.Equal(FM0DecodeHard(halves), bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFM0MLDecodeCleanRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, v := range raw {
			bits[i] = v & 1
		}
		halves, _ := FM0Encode(bits)
		return bytes.Equal(FM0DecodeML(halves), bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFM0MLDecodeNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bits := make([]byte, 2000)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	halves, _ := FM0Encode(bits)
	noisy := make([]float64, len(halves))
	sigma := 0.45 // ≈7 dB half-symbol SNR
	for i, v := range halves {
		noisy[i] = v + rng.NormFloat64()*sigma
	}
	ml := FM0DecodeML(noisy)
	hard := FM0DecodeHard(noisy)
	mlErr, hardErr := 0, 0
	for i := range bits {
		if ml[i] != bits[i] {
			mlErr++
		}
		if hard[i] != bits[i] {
			hardErr++
		}
	}
	if mlErr > hardErr {
		t.Errorf("ML decoder (%d errors) must not lose to hard decisions (%d)", mlErr, hardErr)
	}
	if mlErr > len(bits)/20 {
		t.Errorf("ML error rate %d/%d too high at 7 dB", mlErr, len(bits))
	}
}

func TestFM0MLDecodeSingleFlipCorrection(t *testing.T) {
	// FM0 memory lets ML fix an isolated corrupted half-symbol that hard
	// decisions may get wrong.
	bits := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	halves, _ := FM0Encode(bits)
	corrupted := make([]float64, len(halves))
	copy(corrupted, halves)
	corrupted[5] *= -0.1 // weak, wrong-signed half
	if got := FM0DecodeML(corrupted); !bytes.Equal(got, bits) {
		t.Errorf("ML failed to absorb an isolated weak flip: got %v want %v", got, bits)
	}
}

func TestFM0DecodeEmpty(t *testing.T) {
	if FM0DecodeML(nil) != nil {
		t.Error("empty ML decode should be nil")
	}
	if len(FM0DecodeHard(nil)) != 0 {
		t.Error("empty hard decode should be empty")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/X.25-style parameters (poly 0x1021, init 0xFFFF, xorout
	// 0xFFFF, no reflection): "123456789" → 0xD64E per standard tables
	// for CRC-16/GENIBUS.
	got := CRC16([]byte("123456789"))
	if got != 0xD64E {
		t.Errorf("CRC16 = %#04x, want 0xD64E", got)
	}
}

func TestCRC16AppendAndCheck(t *testing.T) {
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	frame := AppendCRC16(append([]byte(nil), data...))
	if len(frame) != len(data)+2 {
		t.Fatalf("frame length %d", len(frame))
	}
	if !CRC16Check(frame) {
		t.Error("valid frame must check")
	}
	frame[1] ^= 0x01
	if CRC16Check(frame) {
		t.Error("corrupted frame must fail")
	}
	if CRC16Check([]byte{0xAA}) {
		t.Error("short frame must fail")
	}
}

func TestCRC16DetectsAllSingleBitErrorsProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		frame := AppendCRC16(append([]byte(nil), data...))
		for i := 0; i < len(frame)*8; i++ {
			frame[i/8] ^= 1 << uint(i%8)
			ok := CRC16Check(frame)
			frame[i/8] ^= 1 << uint(i%8)
			if ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitsToBytesPadding(t *testing.T) {
	got := BitsToBytes([]byte{1, 0, 1}) // 101 padded → 0b10100000
	if len(got) != 1 || got[0] != 0xA0 {
		t.Errorf("got %#x, want 0xA0", got)
	}
}
