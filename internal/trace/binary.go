package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
)

// The binary encoding is the stores' compact, canonical form of a
// Collector: one block per record category in WriteJSONL's category
// order, each a uint64 record count followed by that many fixed-width
// records. Every field is little-endian at its Go width (NodeIDs 2
// bytes, Type/Reason/Phase 1, Seq 4, durations and ints 8, floats as
// their IEEE-754 bits), so each value round-trips bit-exactly, NaN
// payloads and −0 included, and every Collector has exactly one
// encoding. Ints are stored as int64: the codec assumes a 64-bit int.
//
// Record sizes, in bytes.
const (
	txSize       = 8 + 2 + 1 + 2 + 2 + 4 + 8
	rxSize       = 8 + 2 + 2 + 1 + 2 + 2 + 4 + 8 + 8
	dropSize     = 8 + 2 + 2 + 1 + 2 + 4 + 1
	phaseSize    = 8 + 2 + 1 + 1
	recoverySize = 8 + 2 + 4 + 2
	completeSize = 8 + 2
	vehicleSize  = 8 + 8 + 8 + 8 + 8 + 8
	countSize    = 8
	categories   = 7
)

var le = binary.LittleEndian

// AppendBinary appends the binary encoding of c to dst and returns the
// extended slice. The encoding of an empty collector is the seven zero
// counts, so it is never empty.
func (c *Collector) AppendBinary(dst []byte) []byte {
	n := categories*countSize + len(c.Tx)*txSize + len(c.Rx)*rxSize +
		len(c.Drops)*dropSize + len(c.Phases)*phaseSize +
		len(c.Recovered)*recoverySize + len(c.Completed)*completeSize +
		len(c.Vehicles)*vehicleSize
	dst = slices.Grow(dst, n)
	dst = appendBlock(dst, c.Tx, func(b []byte, r *TxRecord) []byte {
		b = le.AppendUint64(b, uint64(r.At))
		b = le.AppendUint16(b, uint16(r.Src))
		b = append(b, byte(r.Type))
		b = le.AppendUint16(b, uint16(r.Dst))
		b = le.AppendUint16(b, uint16(r.Flow))
		b = le.AppendUint32(b, r.Seq)
		return le.AppendUint64(b, uint64(r.Bytes))
	})
	dst = appendBlock(dst, c.Rx, func(b []byte, r *RxRecord) []byte {
		b = le.AppendUint64(b, uint64(r.At))
		b = le.AppendUint16(b, uint16(r.Dst))
		b = le.AppendUint16(b, uint16(r.Src))
		b = append(b, byte(r.Type))
		b = le.AppendUint16(b, uint16(r.AddrTo))
		b = le.AppendUint16(b, uint16(r.Flow))
		b = le.AppendUint32(b, r.Seq)
		b = le.AppendUint64(b, math.Float64bits(r.RxPowerDBm))
		return le.AppendUint64(b, math.Float64bits(r.SINRdB))
	})
	dst = appendBlock(dst, c.Drops, func(b []byte, r *DropRecord) []byte {
		b = le.AppendUint64(b, uint64(r.At))
		b = le.AppendUint16(b, uint16(r.Dst))
		b = le.AppendUint16(b, uint16(r.Src))
		b = append(b, byte(r.Type))
		b = le.AppendUint16(b, uint16(r.Flow))
		b = le.AppendUint32(b, r.Seq)
		return append(b, byte(r.Reason))
	})
	dst = appendBlock(dst, c.Phases, func(b []byte, r *PhaseRecord) []byte {
		b = le.AppendUint64(b, uint64(r.At))
		b = le.AppendUint16(b, uint16(r.Node))
		return append(b, byte(r.From), byte(r.To))
	})
	dst = appendBlock(dst, c.Recovered, func(b []byte, r *RecoveryRecord) []byte {
		b = le.AppendUint64(b, uint64(r.At))
		b = le.AppendUint16(b, uint16(r.Node))
		b = le.AppendUint32(b, r.Seq)
		return le.AppendUint16(b, uint16(r.From))
	})
	dst = appendBlock(dst, c.Completed, func(b []byte, r *CompleteRecord) []byte {
		b = le.AppendUint64(b, uint64(r.At))
		return le.AppendUint16(b, uint16(r.Node))
	})
	return appendBlock(dst, c.Vehicles, func(b []byte, r *VehicleRecord) []byte {
		b = le.AppendUint64(b, uint64(r.At))
		b = le.AppendUint64(b, uint64(r.Veh))
		b = le.AppendUint64(b, uint64(r.Link))
		b = le.AppendUint64(b, uint64(r.Lane))
		b = le.AppendUint64(b, math.Float64bits(r.Arc))
		return le.AppendUint64(b, math.Float64bits(r.Speed))
	})
}

func appendBlock[T any](dst []byte, recs []T, enc func([]byte, *T) []byte) []byte {
	dst = le.AppendUint64(dst, uint64(len(recs)))
	for i := range recs {
		dst = enc(dst, &recs[i])
	}
	return dst
}

// DecodeBinary parses an encoding AppendBinary wrote. It rejects
// truncated input, a record count larger than the bytes left can hold
// (before allocating for it) and trailing bytes; empty categories decode
// as nil slices, as ReadJSONL leaves them.
func DecodeBinary(data []byte) (*Collector, error) {
	d := decoder{data: data}
	c := &Collector{}
	c.Tx = decodeBlock(&d, "tx", txSize, func(p []byte, r *TxRecord) {
		r.At = time.Duration(le.Uint64(p))
		r.Src = packet.NodeID(le.Uint16(p[8:]))
		r.Type = packet.Type(p[10])
		r.Dst = packet.NodeID(le.Uint16(p[11:]))
		r.Flow = packet.NodeID(le.Uint16(p[13:]))
		r.Seq = le.Uint32(p[15:])
		r.Bytes = int(le.Uint64(p[19:]))
	})
	c.Rx = decodeBlock(&d, "rx", rxSize, func(p []byte, r *RxRecord) {
		r.At = time.Duration(le.Uint64(p))
		r.Dst = packet.NodeID(le.Uint16(p[8:]))
		r.Src = packet.NodeID(le.Uint16(p[10:]))
		r.Type = packet.Type(p[12])
		r.AddrTo = packet.NodeID(le.Uint16(p[13:]))
		r.Flow = packet.NodeID(le.Uint16(p[15:]))
		r.Seq = le.Uint32(p[17:])
		r.RxPowerDBm = math.Float64frombits(le.Uint64(p[21:]))
		r.SINRdB = math.Float64frombits(le.Uint64(p[29:]))
	})
	c.Drops = decodeBlock(&d, "drop", dropSize, func(p []byte, r *DropRecord) {
		r.At = time.Duration(le.Uint64(p))
		r.Dst = packet.NodeID(le.Uint16(p[8:]))
		r.Src = packet.NodeID(le.Uint16(p[10:]))
		r.Type = packet.Type(p[12])
		r.Flow = packet.NodeID(le.Uint16(p[13:]))
		r.Seq = le.Uint32(p[15:])
		r.Reason = mac.DropReason(p[19])
	})
	c.Phases = decodeBlock(&d, "phase", phaseSize, func(p []byte, r *PhaseRecord) {
		r.At = time.Duration(le.Uint64(p))
		r.Node = packet.NodeID(le.Uint16(p[8:]))
		r.From = carq.Phase(p[10])
		r.To = carq.Phase(p[11])
	})
	c.Recovered = decodeBlock(&d, "recovery", recoverySize, func(p []byte, r *RecoveryRecord) {
		r.At = time.Duration(le.Uint64(p))
		r.Node = packet.NodeID(le.Uint16(p[8:]))
		r.Seq = le.Uint32(p[10:])
		r.From = packet.NodeID(le.Uint16(p[14:]))
	})
	c.Completed = decodeBlock(&d, "completion", completeSize, func(p []byte, r *CompleteRecord) {
		r.At = time.Duration(le.Uint64(p))
		r.Node = packet.NodeID(le.Uint16(p[8:]))
	})
	c.Vehicles = decodeBlock(&d, "vehicle", vehicleSize, func(p []byte, r *VehicleRecord) {
		r.At = time.Duration(le.Uint64(p))
		r.Veh = int(le.Uint64(p[8:]))
		r.Link = int(le.Uint64(p[16:]))
		r.Lane = int(le.Uint64(p[24:]))
		r.Arc = math.Float64frombits(le.Uint64(p[32:]))
		r.Speed = math.Float64frombits(le.Uint64(p[40:]))
	})
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after the last record block", len(d.data))
	}
	return c, nil
}

// decoder walks an encoding block by block; after the first error every
// later block decodes as nil.
type decoder struct {
	data []byte
	err  error
}

func decodeBlock[T any](d *decoder, kind string, size int, dec func([]byte, *T)) []T {
	if d.err != nil {
		return nil
	}
	if len(d.data) < countSize {
		d.err = fmt.Errorf("trace: %s count truncated (%d bytes left)", kind, len(d.data))
		return nil
	}
	n := le.Uint64(d.data)
	d.data = d.data[countSize:]
	if n > uint64(len(d.data)/size) {
		d.err = fmt.Errorf("trace: %d %s records need more than the %d bytes left", n, kind, len(d.data))
		return nil
	}
	if n == 0 {
		return nil
	}
	recs := make([]T, n)
	for i := range recs {
		dec(d.data[:size:size], &recs[i])
		d.data = d.data[size:]
	}
	return recs
}
