// Package protocol defines the over-concrete air interface the reader and
// EcoCapsules share: a downlink command set patterned on the EPC UHF Gen2
// protocol the paper adopts (§5.1), CRC-protected framing, and the
// TDMA/slotted-ALOHA inventory mechanism of §3.4 that scales one reader to
// multiple capsules.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ecocapsule/internal/coding"
)

// Command opcodes of the downlink.
type Command byte

const (
	// CmdQuery opens an inventory round with 2^Q slots.
	CmdQuery Command = 0x01
	// CmdQueryRep advances to the next slot of the round.
	CmdQueryRep Command = 0x02
	// CmdAck acknowledges a node's RN16, soliciting its ID.
	CmdAck Command = 0x03
	// CmdSetBLF assigns a node its backscatter link frequency offset.
	CmdSetBLF Command = 0x04
	// CmdReadSensor requests a sensor reading from an addressed node.
	CmdReadSensor Command = 0x05
	// CmdSleep puts an addressed node back into harvest-only standby.
	CmdSleep Command = 0x06
	// CmdNak tells a replying node its backscatter was not decoded (CRC
	// failure at the reader): the node returns to arbitration with its slot
	// counter intact so the next QueryRep re-solicits the reply.
	CmdNak Command = 0x07
)

func (c Command) String() string {
	switch c {
	case CmdQuery:
		return "Query"
	case CmdQueryRep:
		return "QueryRep"
	case CmdAck:
		return "Ack"
	case CmdSetBLF:
		return "SetBLF"
	case CmdReadSensor:
		return "ReadSensor"
	case CmdSleep:
		return "Sleep"
	case CmdNak:
		return "Nak"
	default:
		return fmt.Sprintf("Command(%#02x)", byte(c))
	}
}

// Packet is one downlink frame.
type Packet struct {
	Cmd Command
	// Target addresses a specific node (its 16-bit handle); 0xFFFF is
	// broadcast.
	Target uint16
	// Payload is command-specific: Q for Query, the BLF index for SetBLF,
	// the sensor type for ReadSensor.
	Payload []byte
}

// Broadcast is the all-nodes target.
const Broadcast uint16 = 0xFFFF

// AppendHandle appends h to dst as fmt's "0x%04x", the spelling spans and
// flight-recorder events name a capsule by, without fmt's allocations.
func AppendHandle(dst []byte, h uint16) []byte {
	const digits = "0123456789abcdef"
	return append(dst, '0', 'x', digits[h>>12], digits[h>>8&0xf], digits[h>>4&0xf], digits[h&0xf])
}

// Preamble marks the start of every downlink frame; its alternating
// structure lets a cold node lock symbol timing.
var Preamble = []byte{0xAA, 0x3C}

// AppendMarshal appends the packet's frame to dst: preamble ‖ cmd ‖
// target ‖ len ‖ payload ‖ CRC16, the CRC computed fresh over the frame
// alone. A payload longer than 255 bytes is cut to fit the length byte.
//
//ecolint:hotpath appends into the caller's buffer
func (p Packet) AppendMarshal(dst []byte) []byte {
	if len(p.Payload) > 255 {
		p.Payload = p.Payload[:255]
	}
	start := len(dst)
	dst = append(dst, Preamble[0], Preamble[1], byte(p.Cmd))
	dst = binary.BigEndian.AppendUint16(dst, p.Target)
	dst = append(dst, byte(len(p.Payload)))
	dst = append(dst, p.Payload...)
	return appendCRC(dst, start)
}

// appendCRC appends the big-endian CRC-16 of dst[start:], the frame just
// appended, to dst.
func appendCRC(dst []byte, start int) []byte {
	return binary.BigEndian.AppendUint16(dst, coding.CRC16(dst[start:]))
}

// Unmarshal errors.
var (
	ErrShortFrame  = errors.New("protocol: frame too short")
	ErrBadPreamble = errors.New("protocol: bad preamble")
	ErrBadCRC      = errors.New("protocol: CRC mismatch")
	ErrBadLength   = errors.New("protocol: length field disagrees with frame size")
)

// Unmarshal parses a downlink frame, validating preamble, CRC and length.
// The packet's Payload is a view of frame (nil when empty) that ends
// before the CRC; it is valid as long as frame is.
//
//ecolint:hotpath returns a view
func Unmarshal(frame []byte) (Packet, error) {
	const minLen = 2 + 1 + 2 + 1 + 2
	if len(frame) < minLen {
		return Packet{}, ErrShortFrame
	}
	if frame[0] != Preamble[0] || frame[1] != Preamble[1] {
		return Packet{}, ErrBadPreamble
	}
	if !coding.CRC16Check(frame) {
		return Packet{}, ErrBadCRC
	}
	plen := int(frame[5])
	if len(frame) != minLen+plen {
		return Packet{}, ErrBadLength
	}
	p := Packet{
		Cmd:    Command(frame[2]),
		Target: binary.BigEndian.Uint16(frame[3:5]),
	}
	if plen > 0 {
		p.Payload = frame[6 : 6+plen : 6+plen]
	}
	return p, nil
}

// Bits returns the frame as a 0/1 bit slice ready for PIE encoding.
func (p Packet) Bits() []byte {
	return coding.BytesToBits(p.AppendMarshal(nil))
}

// UplinkFrame is a node's response: handle ‖ sensor type ‖ payload ‖ CRC16.
type UplinkFrame struct {
	Handle uint16
	Kind   byte
	Data   []byte
}

// AppendMarshal appends the uplink frame to dst, the CRC computed fresh
// over the frame alone.
//
//ecolint:hotpath appends into the caller's buffer
func (u UplinkFrame) AppendMarshal(dst []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, u.Handle)
	dst = append(dst, u.Kind)
	dst = append(dst, u.Data...)
	return appendCRC(dst, start)
}

// UnmarshalUplink parses an uplink frame, validating its CRC. The frame's
// Data is a view of frame (nil when empty) that ends before the CRC; it is
// valid as long as frame is.
//
//ecolint:hotpath returns a view
func UnmarshalUplink(frame []byte) (UplinkFrame, error) {
	if len(frame) < 5 {
		return UplinkFrame{}, ErrShortFrame
	}
	if !coding.CRC16Check(frame) {
		return UplinkFrame{}, ErrBadCRC
	}
	u := UplinkFrame{
		Handle: binary.BigEndian.Uint16(frame[0:2]),
		Kind:   frame[2],
	}
	if end := len(frame) - 2; end > 3 {
		u.Data = frame[3:end:end]
	}
	return u, nil
}

// Bits returns the uplink frame as bits ready for FM0 encoding.
func (u UplinkFrame) Bits() []byte {
	return coding.BytesToBits(u.AppendMarshal(nil))
}
