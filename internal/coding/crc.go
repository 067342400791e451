package coding

// crc16Table holds, for every value v of the register's top byte, the
// CRC-16 remainder of v·x^16 modulo the polynomial 0x1021: v placed in the
// high byte and shifted left eight times, XORing in 0x1021 after each shift
// that carries a set bit out of bit 15. Feeding one message byte b then
// folds eight bitwise steps into one lookup, since the register's top byte
// XOR b is all that decides which polynomial multiples those eight shifts
// subtract.
var crc16Table = func() (t [256]uint16) {
	for v := range t {
		crc := uint16(v) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[v] = crc
	}
	return t
}()

// CRC16 implements the CCITT CRC-16 used by the EPC Gen2 air protocol the
// paper's packet structure follows (§5.1): polynomial 0x1021, initial value
// 0xFFFF, final XOR 0xFFFF, MSB first, one table lookup per byte.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc ^ 0xFFFF
}

// CRC16Check verifies data followed by its big-endian CRC-16.
func CRC16Check(frame []byte) bool {
	if len(frame) < 2 {
		return false
	}
	payload := frame[:len(frame)-2]
	want := uint16(frame[len(frame)-2])<<8 | uint16(frame[len(frame)-1])
	return CRC16(payload) == want
}

// BytesToBits expands bytes MSB-first into a slice of 0/1 bytes.
func BytesToBits(data []byte) []byte {
	bits := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bits = append(bits, (b>>uint(i))&1)
		}
	}
	return bits
}

// BitsToBytes packs 0/1 bits MSB-first into bytes; the tail is zero-padded.
func BitsToBytes(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b&1 == 1 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}
