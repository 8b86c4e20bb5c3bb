package trace

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
)

// randomCollector fills every category with a random number of records
// whose fields mix uniformly random values with the edge values the
// binary encoding must carry exactly.
func randomCollector(rng *rand.Rand) *Collector {
	floats := []float64{
		math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), // NaN payloads
		math.Float64frombits(0xfff0_0000_0000_0001),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3.0,
	}
	f := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	ints := []int{0, -1, 1, math.MaxInt64, math.MinInt64, math.MaxInt32 + 1, -(1 << 40)}
	i := func() int {
		if rng.Intn(2) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return int(rng.Uint64())
	}
	at := func() time.Duration { return time.Duration(i()) }
	node := func() packet.NodeID {
		if rng.Intn(3) == 0 {
			return 0xFFFF
		}
		return packet.NodeID(rng.Intn(1 << 16))
	}
	seq := func() uint32 {
		if rng.Intn(3) == 0 {
			return math.MaxUint32
		}
		return rng.Uint32()
	}
	u8 := func() uint8 { return uint8(rng.Intn(256)) }
	typ := func() packet.Type { return packet.TypeData + packet.Type(rng.Intn(int(packet.TypeResponse))) }
	reason := func() mac.DropReason { return mac.DropChannel + mac.DropReason(rng.Intn(int(mac.DropHalfDuplex))) }
	n := func() int { return rng.Intn(12) }

	c := &Collector{}
	for k := n(); k > 0; k-- {
		c.Tx = append(c.Tx, TxRecord{At: at(), Src: node(), Type: typ(), Dst: node(), Flow: node(), Seq: seq(), Bytes: i()})
	}
	for k := n(); k > 0; k-- {
		c.Rx = append(c.Rx, RxRecord{At: at(), Dst: node(), Src: node(), Type: typ(), Flow: node(), Seq: seq()})
	}
	for k := n(); k > 0; k-- {
		c.Drops = append(c.Drops, DropRecord{At: at(), Dst: node(), Src: node(), Type: typ(), Flow: node(),
			Seq: seq(), Reason: reason()})
	}
	for k := n(); k > 0; k-- {
		c.Phases = append(c.Phases, PhaseRecord{At: at(), Node: node(), From: carq.Phase(u8()), To: carq.Phase(u8())})
	}
	for k := n(); k > 0; k-- {
		c.Recovered = append(c.Recovered, RecoveryRecord{At: at(), Node: node(), Seq: seq(), From: node()})
	}
	for k := n(); k > 0; k-- {
		c.Completed = append(c.Completed, CompleteRecord{At: at(), Node: node()})
	}
	for k := n(); k > 0; k-- {
		c.Vehicles = append(c.Vehicles, VehicleRecord{At: at(), Veh: i(), Link: i(), Lane: i(), Arc: f(), Speed: f()})
	}
	c.Sent = randomSends(rng, i)
	return c
}

// randomSends builds a valid sent tally independent of any tx records:
// tallies of random ints, some zero, and flows (0xFFFF among them) whose
// runs start at 0, end at math.MaxUint32, or lie in between, at least
// one seq apart.
func randomSends(rng *rand.Rand, i func() int) Sends {
	var s Sends
	for t := range s.Frames {
		if rng.Intn(3) > 0 {
			s.Frames[t] = FrameTally{Count: i(), Bytes: i()}
		}
	}
	flows := map[packet.NodeID]bool{}
	for k := rng.Intn(5); k > 0; k-- {
		flows[[]packet.NodeID{0, 1, 7, 0xFFFE, 0xFFFF}[rng.Intn(5)]] = true
	}
	for flow := range flows {
		f := FlowSeqs{Flow: flow}
		next := uint64(0)
		if rng.Intn(2) == 0 {
			next = uint64(rng.Uint32())
		}
		for next <= math.MaxUint32 && len(f.Runs) < 6 {
			first := next
			last := min(first+uint64(rng.Intn(4)), math.MaxUint32)
			if rng.Intn(8) == 0 {
				last = math.MaxUint32
			}
			f.Runs = append(f.Runs, SeqRun{First: uint32(first), Last: uint32(last)})
			next = last + 2 + uint64(rng.Intn(3))<<uint(rng.Intn(32))
		}
		s.Flows = append(s.Flows, f)
	}
	slices.SortFunc(s.Flows, func(a, b FlowSeqs) int { return cmp.Compare(a.Flow, b.Flow) })
	return s
}

// sameRecords reports the first difference between two collectors,
// comparing the vehicle samples' floats, the only floats a record
// carries, by their bits so NaN payloads and −0 count.
func sameRecords(t *testing.T, want, got *Collector) {
	t.Helper()
	if want.Counts() != got.Counts() {
		t.Fatalf("counts %+v, want %+v", got.Counts(), want.Counts())
	}
	bits := math.Float64bits
	for i, w := range want.Vehicles {
		g := got.Vehicles[i]
		if bits(w.Arc) != bits(g.Arc) || bits(w.Speed) != bits(g.Speed) {
			t.Fatalf("vehicle %d floats: got %+v, want %+v", i, g, w)
		}
		w.Arc, w.Speed, g.Arc, g.Speed = 0, 0, 0, 0
		if w != g {
			t.Fatalf("vehicle %d: got %+v, want %+v", i, g, w)
		}
	}
	for _, pair := range [][2]any{
		{want.Tx, got.Tx}, {want.Rx, got.Rx}, {want.Drops, got.Drops}, {want.Phases, got.Phases},
		{want.Recovered, got.Recovered}, {want.Completed, got.Completed}, {want.Sent, got.Sent},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("records differ:\n got %+v\nwant %+v", pair[1], pair[0])
		}
	}
}

// extremeCollector puts the delta-coded fields' worst cases back to
// back: At, Bytes, Veh, Link and Lane swinging between math.MinInt64 and
// math.MaxInt64 (deltas that wrap int64), and Seq between 0 and
// math.MaxUint32 (deltas that wrap uint32), in no particular order.
func extremeCollector() *Collector {
	ints := []int{math.MaxInt64, math.MinInt64, math.MaxInt64, 0, math.MinInt64, -1, math.MinInt64}
	seqs := []uint32{0, math.MaxUint32, 0, 1 << 31, 1<<31 - 1, math.MaxUint32, 1}
	c := &Collector{}
	for k, v := range ints {
		at, seq, id := time.Duration(v), seqs[k], packet.NodeID(0xFFFF-k)
		c.Tx = append(c.Tx, TxRecord{At: at, Src: id, Type: packet.TypeResponse, Dst: 0xFFFF, Flow: 0, Seq: seq, Bytes: v})
		c.Rx = append(c.Rx, RxRecord{At: at, Dst: id, Src: 0xFFFF, Type: packet.TypeData, Flow: id, Seq: seq})
		c.Drops = append(c.Drops, DropRecord{At: at, Dst: id, Type: packet.TypeResponse, Seq: seq, Reason: mac.DropHalfDuplex})
		c.Phases = append(c.Phases, PhaseRecord{At: at, Node: id, From: 0xFF})
		c.Recovered = append(c.Recovered, RecoveryRecord{At: at, Node: id, Seq: seq, From: 0xFFFF})
		c.Completed = append(c.Completed, CompleteRecord{At: at, Node: id})
		c.Vehicles = append(c.Vehicles, VehicleRecord{At: at, Veh: v, Link: v, Lane: ints[len(ints)-1-k],
			Arc: math.NaN(), Speed: math.Inf(-1)})
	}
	return c
}

// TestBinaryRoundTrip: randomized collectors full of edge values, and
// the extremes of every delta-coded field, decode to the very records
// they were encoded from, and re-encode to the same bytes.
func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	collectors := []*Collector{extremeCollector()}
	for n := 0; n < 200; n++ {
		collectors = append(collectors, randomCollector(rng))
	}
	for n, c := range collectors {
		enc := c.AppendBinary(nil)
		got, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("collector %d: %v", n, err)
		}
		sameRecords(t, c, got)
		if again := got.AppendBinary(nil); !bytes.Equal(again, enc) {
			t.Fatalf("collector %d: re-encoding differs", n)
		}
	}
}

// TestBinaryAppends: AppendBinary extends dst and leaves its prefix
// alone, so a caller can encode after a header of its own.
func TestBinaryAppends(t *testing.T) {
	c := sampleCollector()
	enc := c.AppendBinary(nil)
	out := c.AppendBinary([]byte("prefix"))
	if !bytes.HasPrefix(out, []byte("prefix")) || !bytes.Equal(out[len("prefix"):], enc) {
		t.Fatal("AppendBinary did not append after the existing bytes")
	}
}

// TestBinaryEmptyCollector: an empty collector encodes to its seven
// record counts and its sent block's two list counts, all zero, one byte
// each — non-nil, so a store keeps "present but empty" distinct from an
// absent section — and decodes back to nil categories, as ReadJSONL
// leaves them.
func TestBinaryEmptyCollector(t *testing.T) {
	enc := (&Collector{}).AppendBinary(nil)
	if !bytes.Equal(enc, make([]byte, categories+2)) {
		t.Fatalf("empty collector encodes to %v", enc)
	}
	got, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &Collector{}) {
		t.Fatalf("empty encoding decodes to %+v", got)
	}
}

// TestDecodeBinaryRejects names the malformed inputs DecodeBinary must
// refuse and the cause it gives for each.
func TestDecodeBinaryRejects(t *testing.T) {
	c := sampleCollector()
	enc := c.AppendBinary(nil)
	noVehicles := *c
	noVehicles.Vehicles = nil
	sent := len((&Collector{Sent: c.Sent}).AppendBinary(nil)) - categories // the sent block's length
	vehicleCount := len(noVehicles.AppendBinary(nil)) - sent - 1           // offset of the vehicle count

	// block prefixes hand-built encodings with the first k categories'
	// zero counts.
	blocks := func(k int, rest ...byte) []byte { return append(make([]byte, k), rest...) }
	oversized := append([]byte{3}, make([]byte, 2*7)...) // three tx records in two minimal records' bytes
	cases := []struct {
		name, cause string
		data        []byte
	}{
		{"nil", "tx count: truncated", nil},
		{"short count", "tx count: truncated", []byte{0x85}},
		{"mid record", "need more than", enc[:4]},
		{"cut count", "vehicle count: truncated", enc[:vehicleCount]},
		{"last vehicle byte", "vehicle record 3: truncated", enc[:len(enc)-sent-1]},
		{"last byte", "2 flow records need more than the 7 bytes left", enc[:len(enc)-1]},
		{"oversized count", "3 tx records need more than", oversized},
		{"huge count", "need more than", binary.AppendUvarint(nil, math.MaxUint64)},
		{"trailing bytes", "1 trailing bytes", append(append([]byte(nil), enc...), 0)},
		{"jsonl", "need more than", []byte(`{"kind":"veh","veh":{"at":0,"veh":3,"link":2,"lane":0,"arc":40,"v":8.25}}` + "\n")},
		// A zero count written in two bytes.
		{"non-minimal count", "tx count: non-minimal varint", []byte{0x80, 0x00, 0, 0, 0, 0, 0, 0}},
		// One completion whose At delta 0 is written in two bytes.
		{"non-minimal varint", "completion record 0: non-minimal varint", blocks(5, 1, 0x80, 0x00, 0x01, 0)},
		// An 11-byte varint.
		{"varint overflow", "tx count: varint overflow", append(bytes.Repeat([]byte{0xFF}, 10), 0x01)},
		// One completion by node 0x10000 (encoded id+1 = 0x10001).
		{"id overflow", "completion record 0: id overflow", blocks(5, 1, 0x00, 0x81, 0x80, 0x04, 0)},
		// One recovery whose zigzag seq delta is 1<<32, past int32.
		{"seq delta overflow", "recovery record 0: seq delta overflow",
			blocks(4, 1, 0x00, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x01, 0, 0)},
		// One tx record of type 5, past TypeResponse.
		{"tx type", "tx record 0: unknown frame type", append([]byte{1, 0, 2, 2, 2, 0, 0, 5}, blocks(6)...)},
		// One rx record of type 0.
		{"rx type", "rx record 0: unknown frame type", append(blocks(1, 1, 0, 2, 2, 2, 0, 0), make([]byte, 5)...)},
		// One DATA drop for reason 4, a cause the MAC no longer has.
		{"drop reason", "drop record 0: unknown drop reason", blocks(2, 1, 0, 2, 2, 2, 0, 1, 4, 0, 0, 0, 0)},
		// Sent blocks after seven empty record blocks. A frame tally of
		// type 5, past TypeResponse.
		{"tally type", "frame tally record 0: unknown frame type", blocks(7, 1, 1, 1, 5, 0)},
		// Two HELLO tallies, then a DATA tally after a HELLO one.
		{"repeated type", "frame tally record 1: frame types out of order", blocks(7, 2, 1, 1, 2, 1, 1, 2, 0)},
		{"unsorted types", "frame tally record 1: frame types out of order", blocks(7, 2, 1, 1, 2, 1, 1, 1, 0)},
		{"zero tally", "frame tally record 0: empty frame tally", blocks(7, 1, 0, 0, 1, 0)},
		{"tally count", "3 frame tally records need more than the 8 bytes left", blocks(7, 3, 1, 1, 1, 1, 1, 2, 0, 0)},
		// Flows 2 then 1 (ids 3 then 2), each with the one run 0..0.
		{"unsorted flows", "flow record 1: flows out of order", blocks(7, 0, 2, 3, 1, 0, 0, 2, 1, 0, 0)},
		{"duplicate flow", "flow record 1: flows out of order", blocks(7, 0, 2, 2, 1, 0, 0, 2, 1, 0, 0)},
		{"flow without runs", "flow record 0: flow without runs", blocks(7, 0, 1, 2, 0, 0, 0)},
		{"run count", "flow record 0: more runs than the bytes left hold", blocks(7, 0, 1, 2, 3, 0, 0, 0)},
		{"flow count", "5 flow records need more than the 4 bytes left", blocks(7, 0, 5, 2, 1, 0, 0)},
		// Flow 1's runs 5..6 and then 6..6 (gap 0) or 7..7 (gap 1).
		{"overlapping runs", "flow record 0: runs overlap or adjoin", blocks(7, 0, 1, 2, 2, 5, 1, 0, 0)},
		{"adjacent runs", "flow record 0: runs overlap or adjoin", blocks(7, 0, 1, 2, 2, 5, 1, 1, 0)},
		// A run from math.MaxUint32 of length 1.
		{"run overflow", "flow record 0: run past the last seq", blocks(7, 0, 1, 2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := DecodeBinary(tc.data)
			if err == nil || c != nil || !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("DecodeBinary = (%v, %v), want an error naming %q", c, err, tc.cause)
			}
		})
	}
	t.Run("every truncation", func(t *testing.T) {
		for n := range enc {
			if c, err := DecodeBinary(enc[:n]); err == nil || c != nil {
				t.Fatalf("encoding cut to %d of %d bytes: DecodeBinary = (%v, %v)", n, len(enc), c, err)
			}
		}
	})
}

// TestDecodeBinaryChecksCountBeforeAllocating: a count claiming ten
// million vehicle records (480 MB decoded) over an almost empty
// remainder must fail without allocating room for them.
func TestDecodeBinaryChecksCountBeforeAllocating(t *testing.T) {
	data := binary.AppendUvarint(make([]byte, categories-1), 10_000_000)
	data = append(data, make([]byte, 1000)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "10000000 vehicle records need more than the 1000 bytes left") {
		t.Fatalf("oversized count: %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting an oversized count allocated %d bytes", n)
	}
}
