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
// order, each a uvarint record count followed by that many records,
// row-wise, and then the sent block. A record is its varint fields in
// struct order, then its raw bytes and floats:
//
//	tx          At Src Dst Flow Seq Bytes | Type
//	rx          At Dst Src Flow Seq | Type
//	drop        At Dst Src Flow Seq | Type Reason
//	phase       At Node | From To
//	recovery    At Node Seq From
//	completion  At Node
//	vehicle     At Veh Link Lane | Arc Speed
//
// The sent block is Collector.Sent as two counted lists: the frame
// tallies that are not zero, by ascending type, then the flows, by
// ascending Flow, each followed by its runs (at least one):
//
//	frame tally Count Bytes | Type
//	flow        Flow Runs
//	run         Gap Len
//
// Count, Bytes, Runs, Gap and Len are uvarints. A run is First..First+Len,
// where First is Gap for a flow's first run and the previous run's Last
// plus Gap after it; Gap is then at least 2, so runs neither overlap nor
// adjoin. The encoder writes Sent as it is: a tally OnTx or the decoder
// built.
//
// Fields are coded as follows:
//
//   - At, and a vehicle record's Veh: zigzag varint of the difference
//     from the previous record's value in the block (the first record's
//     from 0), so unsorted input round-trips too;
//   - Seq: zigzag varint of int32(Seq − previous Seq), modular, so any
//     two sequence numbers are one delta apart;
//   - NodeIDs: uvarint of uint16(id+1), so the broadcast address 0xFFFF
//     takes one byte;
//   - Bytes, Link and Lane: zigzag varints;
//   - Type, Reason and phases: one raw byte each;
//   - floats: their IEEE-754 bits, 8 bytes little-endian, so NaN
//     payloads and −0 round-trip.
//
// Varints are encoding/binary's (LEB128, zigzag for signed values).
// DecodeBinary accepts only canonical input — minimal varints, ids up
// to 0xFFFF, seq deltas within int32, counts the bytes left can hold,
// no trailing bytes — so every Collector has exactly one encoding and
// every accepted input re-encodes to the same bytes. It also accepts
// only the frame types (TypeData..TypeResponse) and drop causes
// (DropChannel..DropHalfDuplex) the MAC records, and only a canonical
// sent block: tallies and flows in strictly ascending order, no zero
// tally, no flow without runs, no run past math.MaxUint32 and no two
// runs of a flow that overlap or adjoin. Ints are stored as int64: the
// codec assumes a 64-bit int.
const categories = 7

// Record sizes at their smallest (every varint one byte), which bound a
// block's count before the decoder allocates for it, and at their
// largest (a NodeID takes up to 3 bytes, a seq delta 5, any other
// varint 10), which pre-grow the encoder's buffer.
const (
	minTx, maxTx             = 6 + 1, 10 + 3*3 + 5 + 10 + 1
	minRx, maxRx             = 5 + 1, 10 + 3*3 + 5 + 1
	minDrop, maxDrop         = 5 + 2, 10 + 3*3 + 5 + 2
	minPhase, maxPhase       = 2 + 2, 10 + 3 + 2
	minRecovery, maxRecovery = 4, 10 + 3 + 5 + 3
	minComplete, maxComplete = 2, 10 + 3
	minVehicle, maxVehicle   = 4 + 16, 4*10 + 16
	minTally, maxTally       = 2 + 1, 2*10 + 1
	minFlow, maxFlow         = 2 + minRun, 3 + 10
	minRun, maxRun           = 2, 2 * 5
)

var le = binary.LittleEndian

// AppendBinary appends the binary encoding of c to dst and returns the
// extended slice. The encoding of an empty collector is nine zero
// counts, the sent block's two among them, so it is never empty.
func (c *Collector) AppendBinary(dst []byte) []byte {
	runs := 0
	for _, f := range c.Sent.Flows {
		runs += len(f.Runs)
	}
	dst = slices.Grow(dst, (categories+2)*binary.MaxVarintLen64+len(c.Tx)*maxTx+len(c.Rx)*maxRx+
		len(c.Drops)*maxDrop+len(c.Phases)*maxPhase+len(c.Recovered)*maxRecovery+
		len(c.Completed)*maxComplete+len(c.Vehicles)*maxVehicle+
		frameTypes*maxTally+len(c.Sent.Flows)*maxFlow+runs*maxRun)

	var at time.Duration
	var seq uint32
	dst = binary.AppendUvarint(dst, uint64(len(c.Tx)))
	for i := range c.Tx {
		r := &c.Tx[i]
		dst = binary.AppendVarint(dst, int64(r.At-at))
		dst = appendID(dst, r.Src)
		dst = appendID(dst, r.Dst)
		dst = appendID(dst, r.Flow)
		dst = appendSeq(dst, r.Seq-seq)
		dst = binary.AppendVarint(dst, int64(r.Bytes))
		dst = append(dst, byte(r.Type))
		at, seq = r.At, r.Seq
	}

	at, seq = 0, 0
	dst = binary.AppendUvarint(dst, uint64(len(c.Rx)))
	for i := range c.Rx {
		r := &c.Rx[i]
		dst = binary.AppendVarint(dst, int64(r.At-at))
		dst = appendID(dst, r.Dst)
		dst = appendID(dst, r.Src)
		dst = appendID(dst, r.Flow)
		dst = appendSeq(dst, r.Seq-seq)
		dst = append(dst, byte(r.Type))
		at, seq = r.At, r.Seq
	}

	at, seq = 0, 0
	dst = binary.AppendUvarint(dst, uint64(len(c.Drops)))
	for i := range c.Drops {
		r := &c.Drops[i]
		dst = binary.AppendVarint(dst, int64(r.At-at))
		dst = appendID(dst, r.Dst)
		dst = appendID(dst, r.Src)
		dst = appendID(dst, r.Flow)
		dst = appendSeq(dst, r.Seq-seq)
		dst = append(dst, byte(r.Type), byte(r.Reason))
		at, seq = r.At, r.Seq
	}

	at = 0
	dst = binary.AppendUvarint(dst, uint64(len(c.Phases)))
	for i := range c.Phases {
		r := &c.Phases[i]
		dst = binary.AppendVarint(dst, int64(r.At-at))
		dst = appendID(dst, r.Node)
		dst = append(dst, byte(r.From), byte(r.To))
		at = r.At
	}

	at, seq = 0, 0
	dst = binary.AppendUvarint(dst, uint64(len(c.Recovered)))
	for i := range c.Recovered {
		r := &c.Recovered[i]
		dst = binary.AppendVarint(dst, int64(r.At-at))
		dst = appendID(dst, r.Node)
		dst = appendSeq(dst, r.Seq-seq)
		dst = appendID(dst, r.From)
		at, seq = r.At, r.Seq
	}

	at = 0
	dst = binary.AppendUvarint(dst, uint64(len(c.Completed)))
	for i := range c.Completed {
		r := &c.Completed[i]
		dst = binary.AppendVarint(dst, int64(r.At-at))
		dst = appendID(dst, r.Node)
		at = r.At
	}

	at = 0
	veh := 0
	dst = binary.AppendUvarint(dst, uint64(len(c.Vehicles)))
	for i := range c.Vehicles {
		r := &c.Vehicles[i]
		dst = binary.AppendVarint(dst, int64(r.At-at))
		dst = binary.AppendVarint(dst, int64(r.Veh-veh))
		dst = binary.AppendVarint(dst, int64(r.Link))
		dst = binary.AppendVarint(dst, int64(r.Lane))
		dst = le.AppendUint64(dst, math.Float64bits(r.Arc))
		dst = le.AppendUint64(dst, math.Float64bits(r.Speed))
		at, veh = r.At, r.Veh
	}
	return c.Sent.appendBinary(dst)
}

func (s *Sends) appendBinary(dst []byte) []byte {
	tallies := 0
	for _, f := range s.Frames {
		if f != (FrameTally{}) {
			tallies++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(tallies))
	for i, f := range s.Frames {
		if f != (FrameTally{}) {
			dst = binary.AppendUvarint(dst, uint64(f.Count))
			dst = binary.AppendUvarint(dst, uint64(f.Bytes))
			dst = append(dst, byte(packet.TypeData)+byte(i))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Flows)))
	for _, f := range s.Flows {
		dst = appendID(dst, f.Flow)
		dst = binary.AppendUvarint(dst, uint64(len(f.Runs)))
		var last uint32
		for k, r := range f.Runs {
			gap := r.First
			if k > 0 {
				gap -= last
			}
			dst = binary.AppendUvarint(dst, uint64(gap))
			dst = binary.AppendUvarint(dst, uint64(r.Last-r.First))
			last = r.Last
		}
	}
	return dst
}

func appendID(dst []byte, id packet.NodeID) []byte {
	return binary.AppendUvarint(dst, uint64(id+1))
}

func appendSeq(dst []byte, delta uint32) []byte {
	return binary.AppendVarint(dst, int64(int32(delta)))
}

// DecodeBinary parses an encoding AppendBinary wrote. It rejects input
// that is not canonical (see the encoding's description), truncated
// anywhere, or followed by trailing bytes, and it checks every record
// count against the bytes left before allocating for it. Empty
// categories decode as nil slices, as ReadJSONL leaves them.
func DecodeBinary(data []byte) (*Collector, error) {
	d := decoder{p: data}
	c := &Collector{
		Tx:        decodeTx(&d),
		Rx:        decodeRx(&d),
		Drops:     decodeDrops(&d),
		Phases:    decodePhases(&d),
		Recovered: decodeRecoveries(&d),
		Completed: decodeCompletions(&d),
		Vehicles:  decodeVehicles(&d),
		Sent:      decodeSends(&d),
	}
	if d.err != nil {
		return nil, d.err
	}
	if n := len(d.p) - d.i; n != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after the last record block", n)
	}
	return c, nil
}

// decoder walks an encoding block by block; after the first error every
// later block decodes as nil. Each block's loop keeps the slice and
// offset in locals and reads a record's varints in one uvarints call,
// then checks their ranges, then reads the record's tail.
type decoder struct {
	p   []byte
	i   int
	err error
}

// Read errors, which uvarints and recordError return as negative
// offsets.
const (
	errTruncated = -1 - iota
	errNonMinimal
	errVarintOverflow
	errIDOverflow
	errSeqOverflow
	errBadType
	errBadReason
	errTypeOrder
	errEmptyTally
	errFlowOrder
	errNoRuns
	errRunCount
	errRunsTouch
	errRunOverflow
)

var readErrors = [...]string{
	-errTruncated - 1:      "truncated",
	-errNonMinimal - 1:     "non-minimal varint",
	-errVarintOverflow - 1: "varint overflow",
	-errIDOverflow - 1:     "id overflow",
	-errSeqOverflow - 1:    "seq delta overflow",
	-errBadType - 1:        "unknown frame type",
	-errBadReason - 1:      "unknown drop reason",
	-errTypeOrder - 1:      "frame types out of order",
	-errEmptyTally - 1:     "empty frame tally",
	-errFlowOrder - 1:      "flows out of order",
	-errNoRuns - 1:         "flow without runs",
	-errRunCount - 1:       "more runs than the bytes left hold",
	-errRunsTouch - 1:      "runs overlap or adjoin",
	-errRunOverflow - 1:    "run past the last seq",
}

// count reads a block's record count and checks that the bytes left
// can hold that many records of at least minSize bytes each.
func (d *decoder) count(kind string, minSize int) int {
	if d.err != nil {
		return 0
	}
	var n [1]uint64
	i := uvarints(d.p, d.i, n[:])
	if i < 0 {
		d.err = fmt.Errorf("trace: %s count: %s", kind, readErrors[-i-1])
		return 0
	}
	if left := len(d.p) - i; n[0] > uint64(left/minSize) {
		d.err = fmt.Errorf("trace: %d %s records need more than the %d bytes left", n[0], kind, left)
		return 0
	}
	d.i = i
	return int(n[0])
}

// recordError returns the read error of a record whose varints ended at
// offset i (or failed with a read error there), whose NodeID varints
// ORed together are ids and whose seq-delta varint is seq, and which
// needs tail more bytes; 0 if it has none.
func recordError(p []byte, i int, ids, seq uint64, tail int) int {
	switch {
	case i < 0:
		return i
	case ids > math.MaxUint16:
		return errIDOverflow
	case seq > math.MaxUint32:
		return errSeqOverflow
	case len(p)-i < tail:
		return errTruncated
	}
	return 0
}

// frameError returns the read error of a record tail that starts with a
// frame type byte and, when withReason, a drop reason byte next; 0 if it
// has none. Only the types and causes the MAC can record are valid.
func frameError(tail []byte, withReason bool) int {
	if t := packet.Type(tail[0]); t < packet.TypeData || t > packet.TypeResponse {
		return errBadType
	}
	if withReason {
		if r := mac.DropReason(tail[1]); r < mac.DropChannel || r > mac.DropHalfDuplex {
			return errBadReason
		}
	}
	return 0
}

// fail records the read error code of record rec.
func (d *decoder) fail(kind string, rec, code int) {
	d.err = fmt.Errorf("trace: %s record %d: %s", kind, rec, readErrors[-code-1])
}

// uvarints reads len(u) minimal uvarints at p[i:] into u and returns the
// offset after them, or a read error. A one-byte varint takes the
// inline fast path.
func uvarints(p []byte, i int, u []uint64) int {
	for f := range u {
		if uint(i) < uint(len(p)) && p[i] < 0x80 {
			u[f] = uint64(p[i])
			i++
			continue
		}
		v, n := binary.Uvarint(p[i:])
		switch {
		case n == 0:
			return errTruncated
		case n < 0:
			return errVarintOverflow
		case p[i+n-1] == 0: // n > 1: the fast path took one-byte varints
			return errNonMinimal
		}
		u[f] = v
		i += n
	}
	return i
}

func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// id decodes a NodeID varint: uint16(id+1), so 0 is 0xFFFF.
func id(u uint64) packet.NodeID { return packet.NodeID(u - 1) }

func decodeTx(d *decoder) []TxRecord {
	n := d.count("tx", minTx)
	if n == 0 {
		return nil
	}
	recs := make([]TxRecord, n)
	p, i := d.p, d.i
	var at int64
	var seq uint32
	var u [6]uint64
	for k := range recs {
		i = uvarints(p, i, u[:])
		code := recordError(p, i, u[1]|u[2]|u[3], u[4], 1)
		if code == 0 {
			code = frameError(p[i:], false)
		}
		if code < 0 {
			d.fail("tx", k, code)
			return nil
		}
		at += zigzag(u[0])
		seq += uint32(zigzag(u[4]))
		r := &recs[k]
		r.At, r.Src, r.Type, r.Dst, r.Flow = time.Duration(at), id(u[1]), packet.Type(p[i]), id(u[2]), id(u[3])
		r.Seq, r.Bytes = seq, int(zigzag(u[5]))
		i++
	}
	d.i = i
	return recs
}

func decodeRx(d *decoder) []RxRecord {
	n := d.count("rx", minRx)
	if n == 0 {
		return nil
	}
	recs := make([]RxRecord, n)
	p, i := d.p, d.i
	var at int64
	var seq uint32
	var u [5]uint64
	for k := range recs {
		i = uvarints(p, i, u[:])
		code := recordError(p, i, u[1]|u[2]|u[3], u[4], 1)
		if code == 0 {
			code = frameError(p[i:], false)
		}
		if code < 0 {
			d.fail("rx", k, code)
			return nil
		}
		at += zigzag(u[0])
		seq += uint32(zigzag(u[4]))
		r := &recs[k]
		r.At, r.Dst, r.Src, r.Type = time.Duration(at), id(u[1]), id(u[2]), packet.Type(p[i])
		r.Flow, r.Seq = id(u[3]), seq
		i++
	}
	d.i = i
	return recs
}

func decodeDrops(d *decoder) []DropRecord {
	n := d.count("drop", minDrop)
	if n == 0 {
		return nil
	}
	recs := make([]DropRecord, n)
	p, i := d.p, d.i
	var at int64
	var seq uint32
	var u [5]uint64
	for k := range recs {
		i = uvarints(p, i, u[:])
		code := recordError(p, i, u[1]|u[2]|u[3], u[4], 2)
		if code == 0 {
			code = frameError(p[i:], true)
		}
		if code < 0 {
			d.fail("drop", k, code)
			return nil
		}
		at += zigzag(u[0])
		seq += uint32(zigzag(u[4]))
		r := &recs[k]
		r.At, r.Dst, r.Src, r.Type = time.Duration(at), id(u[1]), id(u[2]), packet.Type(p[i])
		r.Flow, r.Seq, r.Reason = id(u[3]), seq, mac.DropReason(p[i+1])
		i += 2
	}
	d.i = i
	return recs
}

func decodePhases(d *decoder) []PhaseRecord {
	n := d.count("phase", minPhase)
	if n == 0 {
		return nil
	}
	recs := make([]PhaseRecord, n)
	p, i := d.p, d.i
	var at int64
	var u [2]uint64
	for k := range recs {
		i = uvarints(p, i, u[:])
		if code := recordError(p, i, u[1], 0, 2); code < 0 {
			d.fail("phase", k, code)
			return nil
		}
		at += zigzag(u[0])
		r := &recs[k]
		r.At, r.Node, r.From, r.To = time.Duration(at), id(u[1]), carq.Phase(p[i]), carq.Phase(p[i+1])
		i += 2
	}
	d.i = i
	return recs
}

func decodeRecoveries(d *decoder) []RecoveryRecord {
	n := d.count("recovery", minRecovery)
	if n == 0 {
		return nil
	}
	recs := make([]RecoveryRecord, n)
	p, i := d.p, d.i
	var at int64
	var seq uint32
	var u [4]uint64
	for k := range recs {
		i = uvarints(p, i, u[:])
		if code := recordError(p, i, u[1]|u[3], u[2], 0); code < 0 {
			d.fail("recovery", k, code)
			return nil
		}
		at += zigzag(u[0])
		seq += uint32(zigzag(u[2]))
		r := &recs[k]
		r.At, r.Node, r.Seq, r.From = time.Duration(at), id(u[1]), seq, id(u[3])
	}
	d.i = i
	return recs
}

func decodeCompletions(d *decoder) []CompleteRecord {
	n := d.count("completion", minComplete)
	if n == 0 {
		return nil
	}
	recs := make([]CompleteRecord, n)
	p, i := d.p, d.i
	var at int64
	var u [2]uint64
	for k := range recs {
		i = uvarints(p, i, u[:])
		if code := recordError(p, i, u[1], 0, 0); code < 0 {
			d.fail("completion", k, code)
			return nil
		}
		at += zigzag(u[0])
		r := &recs[k]
		r.At, r.Node = time.Duration(at), id(u[1])
	}
	d.i = i
	return recs
}

func decodeVehicles(d *decoder) []VehicleRecord {
	n := d.count("vehicle", minVehicle)
	if n == 0 {
		return nil
	}
	recs := make([]VehicleRecord, n)
	p, i := d.p, d.i
	var at, veh int64
	var u [4]uint64
	for k := range recs {
		i = uvarints(p, i, u[:])
		if code := recordError(p, i, 0, 0, 16); code < 0 {
			d.fail("vehicle", k, code)
			return nil
		}
		at += zigzag(u[0])
		veh += zigzag(u[1])
		r := &recs[k]
		r.At, r.Veh, r.Link, r.Lane = time.Duration(at), int(veh), int(zigzag(u[2])), int(zigzag(u[3]))
		r.Arc = math.Float64frombits(le.Uint64(p[i:]))
		r.Speed = math.Float64frombits(le.Uint64(p[i+8:]))
		i += 16
	}
	d.i = i
	return recs
}

// decodeSends decodes the sent block. Its two lists are checked as the
// record blocks are, then for the canonical order and runs.
func decodeSends(d *decoder) Sends {
	var s Sends
	n := d.count("frame tally", minTally)
	p, i := d.p, d.i
	var u [2]uint64
	var prev packet.Type
	for k := 0; k < n; k++ {
		i = uvarints(p, i, u[:])
		code := recordError(p, i, 0, 0, 1)
		if code == 0 {
			code = frameError(p[i:], false)
		}
		switch {
		case code < 0:
		case packet.Type(p[i]) <= prev:
			code = errTypeOrder
		case u[0]|u[1] == 0:
			code = errEmptyTally
		}
		if code < 0 {
			d.fail("frame tally", k, code)
			return Sends{}
		}
		prev = packet.Type(p[i])
		s.Frames[prev-packet.TypeData] = FrameTally{Count: int(u[0]), Bytes: int(u[1])}
		i++
	}
	d.i = i

	n = d.count("flow", minFlow)
	if n == 0 {
		return s
	}
	i = d.i
	s.Flows = make([]FlowSeqs, n)
	for k := range s.Flows {
		i = uvarints(p, i, u[:])
		code := recordError(p, i, u[0], 0, 0)
		switch {
		case code < 0:
		case k > 0 && id(u[0]) <= s.Flows[k-1].Flow:
			code = errFlowOrder
		case u[1] == 0:
			code = errNoRuns
		case u[1] > uint64((len(p)-i)/minRun):
			code = errRunCount
		}
		if code < 0 {
			d.fail("flow", k, code)
			return Sends{}
		}
		f := &s.Flows[k]
		f.Flow, f.Runs = id(u[0]), make([]SeqRun, u[1])
		var last uint64 // the previous run's Last, 0 before the first
		for r := range f.Runs {
			i = uvarints(p, i, u[:])
			gap, span := u[0], u[1]
			switch {
			case i < 0:
				code = i
			case gap > math.MaxUint32 || span > math.MaxUint32 || last+gap+span > math.MaxUint32:
				code = errRunOverflow
			case r > 0 && gap < 2:
				code = errRunsTouch
			}
			if code < 0 {
				d.fail("flow", k, code)
				return Sends{}
			}
			last += gap + span
			f.Runs[r] = SeqRun{First: uint32(last - span), Last: uint32(last)}
		}
	}
	d.i = i
	return s
}
