package coding

import (
	"math/rand"
	"testing"
)

// crc16Bitwise is the reference CRC-16 (polynomial 0x1021, init 0xFFFF,
// final XOR 0xFFFF, MSB first) computed one bit at a time: the oracle the
// table-driven CRC16 must match bit for bit.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc ^ 0xFFFF
}

func TestCRC16MatchesBitwiseOracle(t *testing.T) {
	for v := 0; v < 256; v++ {
		frame := []byte{byte(v)}
		if got, want := CRC16(frame), crc16Bitwise(frame); got != want {
			t.Fatalf("CRC16(%#02x) = %#04x, oracle %#04x", v, got, want)
		}
	}
	rng := rand.New(rand.NewSource(16))
	frame := make([]byte, 300)
	for n := 0; n <= len(frame); n++ {
		for k := 0; k < 8; k++ {
			rng.Read(frame[:n])
			if got, want := CRC16(frame[:n]), crc16Bitwise(frame[:n]); got != want {
				t.Fatalf("CRC16(%x) = %#04x, oracle %#04x", frame[:n], got, want)
			}
		}
	}
}

// FuzzCRC16 holds the table-driven CRC16 to the bitwise oracle on
// arbitrary frames.
func FuzzCRC16(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("123456789"))
	f.Add(AppendCRC16([]byte{0xEC, 0x05, 0x42, 0xA5, 0x00, 0xFF}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Fatalf("CRC16(%x) = %#04x, oracle %#04x", data, got, want)
		}
	})
}

// AppendCRC16 appends the big-endian CRC-16 of data to data and returns it:
// the framing the package's tests build their CRC-protected inputs with.
func AppendCRC16(data []byte) []byte {
	crc := CRC16(data)
	return append(data, byte(crc>>8), byte(crc))
}
