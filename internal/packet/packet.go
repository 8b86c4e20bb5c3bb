// Package packet defines the wire formats exchanged by the Cooperative-ARQ
// protocol: DATA frames from the access point, HELLO beacons carrying
// cooperator lists, REQUEST frames for missing packets, and RESPONSE frames
// from cooperators.
//
// Encode and Decode define the byte format (big-endian, CRC-32 trailer);
// they are the format's specification, checked by tests and fuzzing. The
// simulator never puts those bytes on its medium: the MAC hands every
// receiver the sender's *Frame, checks it with Validate and charges
// airtime for WireSize bytes, so header overhead is still accounted for
// honestly.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// NodeID identifies a station (AP or vehicle) in the network.
type NodeID uint16

// Broadcast is the all-stations destination address.
const Broadcast NodeID = 0xFFFF

// String implements fmt.Stringer.
func (id NodeID) String() string {
	if id == Broadcast {
		return "bcast"
	}
	return fmt.Sprintf("n%d", uint16(id))
}

// Type discriminates the protocol frames.
type Type uint8

// Frame types. Values start at 1 so the zero value is invalid on the wire.
const (
	TypeData     Type = iota + 1 // AP -> car numbered data packet
	TypeHello                    // car beacon: presence + cooperator list
	TypeRequest                  // car -> cooperators: missing sequence(s)
	TypeResponse                 // cooperator -> car: buffered data packet
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeHello:
		return "HELLO"
	case TypeRequest:
		return "REQUEST"
	case TypeResponse:
		return "RESPONSE"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Wire layout constants.
const (
	version = 1

	// headerLen is version(1) + type(1) + src(2) + dst(2) + flow(2) +
	// seq(4) + listLen(2) + payloadLen(2).
	headerLen  = 16
	trailerLen = 4 // CRC-32

	// Overhead is the fixed per-frame byte cost (header + CRC trailer).
	Overhead = headerLen + trailerLen

	// MaxPayload bounds DATA/RESPONSE payloads; generous for the 1000 B
	// payloads the paper's testbed used.
	MaxPayload = 2304

	// MaxListLen bounds the cooperator and sequence lists.
	MaxListLen = 1024
)

// Errors returned by Decode, Validate and Encode.
var (
	ErrTruncated   = errors.New("packet: frame truncated")
	ErrBadVersion  = errors.New("packet: unsupported version")
	ErrBadType     = errors.New("packet: unknown frame type")
	ErrBadChecksum = errors.New("packet: CRC mismatch")
	ErrBadList     = errors.New("packet: list length out of range")
	ErrBadPayload  = errors.New("packet: payload length out of range")
)

// Frame is the in-memory representation of any protocol frame. Field use
// by type:
//
//	DATA:     Src=AP, Dst=Flow=destination car, Seq, Payload.
//	HELLO:    Src=car, Dst=Broadcast, List=cooperator IDs in cooperation order.
//	REQUEST:  Src=car, Dst=Broadcast, Flow=Src, Seqs=missing sequences
//	          (length 1 unless batched requests are enabled).
//	RESPONSE: Src=cooperator, Dst=requesting car, Flow=requesting car,
//	          Seq=recovered sequence, Payload=original data.
type Frame struct {
	Type    Type
	Src     NodeID
	Dst     NodeID
	Flow    NodeID
	Seq     uint32
	Seqs    []uint32 // REQUEST only
	List    []NodeID // HELLO only
	Payload []byte   // DATA / RESPONSE only
}

// NewData builds a DATA frame from ap to car with the given sequence number
// and payload.
func NewData(ap, car NodeID, seq uint32, payload []byte) *Frame {
	return &Frame{Type: TypeData, Src: ap, Dst: car, Flow: car, Seq: seq, Payload: payload}
}

// NewHello builds a HELLO beacon for src carrying its cooperator list.
func NewHello(src NodeID, cooperators []NodeID) *Frame {
	return &Frame{Type: TypeHello, Src: src, Dst: Broadcast, List: cooperators}
}

// NewRequest builds a REQUEST from src for the given missing sequences of
// its own flow.
func NewRequest(src NodeID, seqs []uint32) *Frame {
	return &Frame{Type: TypeRequest, Src: src, Dst: Broadcast, Flow: src, Seqs: seqs}
}

// NewResponse builds a RESPONSE from cooperator src answering dst's request
// for sequence seq with the buffered payload.
func NewResponse(src, dst NodeID, seq uint32, payload []byte) *Frame {
	return &Frame{Type: TypeResponse, Src: src, Dst: dst, Flow: dst, Seq: seq, Payload: payload}
}

// listLen returns the element count of the variable-length list section.
func (f *Frame) listLen() int {
	switch f.Type {
	case TypeHello:
		return len(f.List)
	case TypeRequest:
		return len(f.Seqs)
	default:
		return 0
	}
}

// WireSize returns the length of the frame's encoding without encoding
// it. The MAC computes airtime from it.
func (f *Frame) WireSize() int {
	n := headerLen + trailerLen + len(f.Payload)
	switch f.Type {
	case TypeHello:
		n += 2 * len(f.List)
	case TypeRequest:
		n += 4 * len(f.Seqs)
	}
	return n
}

// Validate checks the frame against the wire format's limits: a known
// type, a list of at most MaxListLen elements and a payload of at most
// MaxPayload bytes. A frame that validates encodes.
func (f *Frame) Validate() error {
	switch f.Type {
	case TypeData, TypeHello, TypeRequest, TypeResponse:
	default:
		return fmt.Errorf("%w: %d", ErrBadType, f.Type)
	}
	if f.listLen() > MaxListLen {
		return fmt.Errorf("%w: %d elements", ErrBadList, f.listLen())
	}
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrBadPayload, len(f.Payload))
	}
	return nil
}

// Encode serialises the frame into WireSize() bytes. It returns
// Validate's error for a frame outside the format's limits.
func (f *Frame) Encode() ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, f.WireSize())
	buf = append(buf, version, byte(f.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(f.Src))
	buf = binary.BigEndian.AppendUint16(buf, uint16(f.Dst))
	buf = binary.BigEndian.AppendUint16(buf, uint16(f.Flow))
	buf = binary.BigEndian.AppendUint32(buf, f.Seq)
	buf = binary.BigEndian.AppendUint16(buf, uint16(f.listLen()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Payload)))
	switch f.Type {
	case TypeHello:
		for _, id := range f.List {
			buf = binary.BigEndian.AppendUint16(buf, uint16(id))
		}
	case TypeRequest:
		for _, s := range f.Seqs {
			buf = binary.BigEndian.AppendUint32(buf, s)
		}
	}
	buf = append(buf, f.Payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode parses a frame from wire bytes, validating structure and CRC.
func Decode(b []byte) (*Frame, error) {
	if len(b) < headerLen+trailerLen {
		return nil, ErrTruncated
	}
	body, trailer := b[:len(b)-trailerLen], b[len(b)-trailerLen:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, ErrBadChecksum
	}
	if body[0] != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, body[0])
	}
	f := &Frame{
		Type: Type(body[1]),
		Src:  NodeID(binary.BigEndian.Uint16(body[2:4])),
		Dst:  NodeID(binary.BigEndian.Uint16(body[4:6])),
		Flow: NodeID(binary.BigEndian.Uint16(body[6:8])),
		Seq:  binary.BigEndian.Uint32(body[8:12]),
	}
	listLen := int(binary.BigEndian.Uint16(body[12:14]))
	payloadLen := int(binary.BigEndian.Uint16(body[14:16]))
	if listLen > MaxListLen {
		return nil, fmt.Errorf("%w: %d elements", ErrBadList, listLen)
	}
	if payloadLen > MaxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadPayload, payloadLen)
	}
	rest := body[headerLen:]
	switch f.Type {
	case TypeData, TypeResponse:
		if listLen != 0 {
			return nil, fmt.Errorf("%w: unexpected list on %v", ErrBadList, f.Type)
		}
	case TypeHello:
		if len(rest) < 2*listLen {
			return nil, ErrTruncated
		}
		if listLen > 0 {
			f.List = make([]NodeID, listLen)
			for i := range f.List {
				f.List[i] = NodeID(binary.BigEndian.Uint16(rest[2*i:]))
			}
		}
		rest = rest[2*listLen:]
	case TypeRequest:
		if len(rest) < 4*listLen {
			return nil, ErrTruncated
		}
		if listLen > 0 {
			f.Seqs = make([]uint32, listLen)
			for i := range f.Seqs {
				f.Seqs[i] = binary.BigEndian.Uint32(rest[4*i:])
			}
		}
		rest = rest[4*listLen:]
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(f.Type))
	}
	if len(rest) != payloadLen {
		return nil, ErrTruncated
	}
	if payloadLen > 0 {
		f.Payload = make([]byte, payloadLen)
		copy(f.Payload, rest)
	}
	return f, nil
}

// String implements fmt.Stringer for logging and traces.
func (f *Frame) String() string {
	switch f.Type {
	case TypeData:
		return fmt.Sprintf("DATA %v->%v seq=%d len=%d", f.Src, f.Dst, f.Seq, len(f.Payload))
	case TypeHello:
		return fmt.Sprintf("HELLO %v coop=%v", f.Src, f.List)
	case TypeRequest:
		return fmt.Sprintf("REQUEST %v seqs=%v", f.Src, f.Seqs)
	case TypeResponse:
		return fmt.Sprintf("RESPONSE %v->%v seq=%d len=%d", f.Src, f.Dst, f.Seq, len(f.Payload))
	default:
		return fmt.Sprintf("Frame(type=%d)", uint8(f.Type))
	}
}
