package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

func sampleCollector() *Collector {
	c := &Collector{}
	// AP 100 sends seqs 1..3 to flow 1 and 1..2 to flow 2.
	for seq := uint32(1); seq <= 3; seq++ {
		c.OnTx(100, packet.NewData(100, 1, seq, []byte("x")), time.Duration(seq)*time.Second, 8*time.Millisecond)
	}
	for seq := uint32(1); seq <= 2; seq++ {
		c.OnTx(100, packet.NewData(100, 2, seq, []byte("x")), time.Duration(10+seq)*time.Second, 8*time.Millisecond)
	}
	// Car 1 receives seqs 1 and 3 directly; car 2 receives car 1's seq 2.
	c.OnRx(1, packet.NewData(100, 1, 1, []byte("x")), mac.RxMeta{At: time.Second, RxPowerDBm: -70, SINRdB: 20})
	c.OnRx(1, packet.NewData(100, 1, 3, []byte("x")), mac.RxMeta{At: 3 * time.Second, RxPowerDBm: -72, SINRdB: 19})
	c.OnRx(2, packet.NewData(100, 1, 2, []byte("x")), mac.RxMeta{At: 2 * time.Second, RxPowerDBm: -75, SINRdB: 16})
	// Car 1 misses seq 2 off the air.
	c.OnDrop(1, packet.NewData(100, 1, 2, []byte("x")), 2*time.Second, mac.DropChannel)
	// Protocol events: car 1 recovers seq 2 from car 2.
	c.OnPhaseChange(1, carq.PhaseReception, carq.PhaseCoopARQ, 8*time.Second)
	c.OnRecovered(1, 2, 2, 9*time.Second)
	c.OnComplete(1, 9*time.Second)
	// Traffic stream: two vehicles sampled twice each.
	c.Vehicles = []VehicleRecord{
		{At: 0, Veh: 7, Link: 0, Lane: 1, Arc: 12.5, Speed: 8.25},
		{At: 0, Veh: 3, Link: 2, Lane: 0, Arc: 40, Speed: 0},
		{At: 500 * time.Millisecond, Veh: 7, Link: 0, Lane: 0, Arc: 16.625, Speed: 8.5},
		{At: 500 * time.Millisecond, Veh: 3, Link: 2, Lane: 0, Arc: 40, Speed: 0.1},
	}
	return c
}

func TestDataSentSeqs(t *testing.T) {
	c := sampleCollector()
	got := c.DataSentSeqs(1)
	want := []uint32{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DataSentSeqs(1) = %v, want %v", got, want)
	}
	if got := c.DataSentSeqs(2); len(got) != 2 {
		t.Fatalf("DataSentSeqs(2) = %v", got)
	}
	if got := c.DataSentSeqs(9); got != nil {
		t.Fatalf("DataSentSeqs(9) = %v, want nil", got)
	}
}

func TestDataSentSeqsDeduplicates(t *testing.T) {
	c := &Collector{}
	f := packet.NewData(100, 1, 5, nil)
	c.OnTx(100, f, time.Second, time.Millisecond)
	c.OnTx(100, f, 2*time.Second, time.Millisecond) // AP repeat
	if got := c.DataSentSeqs(1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("DataSentSeqs = %v, want [5]", got)
	}
}

func TestCounts(t *testing.T) {
	c := sampleCollector()
	got := c.Counts()
	want := Counts{Tx: 5, Rx: 3, Drops: 1, Phases: 1, Recovered: 1, Completed: 1, Vehicles: 4}
	if got != want {
		t.Fatalf("Counts = %+v, want %+v", got, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := sampleCollector()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", c, got)
	}
}

func TestJSONLEmptyCollector(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Collector{}).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts() != (Counts{}) {
		t.Fatalf("non-empty round trip of empty collector: %+v", got.Counts())
	}
}

func TestReadJSONLErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"garbage", "not json\n"},
		{"unknown kind", `{"kind":"nope"}` + "\n"},
		{"missing body", `{"kind":"tx"}` + "\n"},
		{"missing rx body", `{"kind":"rx"}` + "\n"},
		{"missing drop body", `{"kind":"drop"}` + "\n"},
		{"missing phase body", `{"kind":"phase"}` + "\n"},
		{"missing recovery body", `{"kind":"recovered"}` + "\n"},
		{"missing completion body", `{"kind":"completed"}` + "\n"},
		{"missing vehicle body", `{"kind":"veh"}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadJSONL(strings.NewReader(tc.input)); err == nil {
				t.Fatalf("input %q accepted", tc.input)
			}
		})
	}
}

// vehicleIDs returns the distinct vehicle IDs present in c's traffic
// stream, ascending.
func vehicleIDs(c *Collector) []int {
	seen := make(map[int]bool)
	var out []int
	for _, r := range c.Vehicles {
		if !seen[r.Veh] {
			seen[r.Veh] = true
			out = append(out, r.Veh)
		}
	}
	sort.Ints(out)
	return out
}

// vehicleSeries returns vehicle veh's samples in recording order.
func vehicleSeries(c *Collector, veh int) []VehicleRecord {
	var out []VehicleRecord
	for _, r := range c.Vehicles {
		if r.Veh == veh {
			out = append(out, r)
		}
	}
	return out
}

func TestVehicleQueries(t *testing.T) {
	c := sampleCollector()
	if got := vehicleIDs(c); !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("VehicleIDs = %v, want [3 7]", got)
	}
	s7 := vehicleSeries(c, 7)
	if len(s7) != 2 || s7[0].At != 0 || s7[1].At != 500*time.Millisecond {
		t.Fatalf("VehicleSeries(7) = %+v", s7)
	}
	if s7[1].Lane != 0 || s7[0].Lane != 1 {
		t.Fatalf("lane change not preserved: %+v", s7)
	}
	if got := vehicleSeries(c, 99); got != nil {
		t.Fatalf("VehicleSeries(99) = %v, want nil", got)
	}
}

// TestJSONLVehicleFloatExactness checks that awkward float64 values (the
// kind closed-loop traffic integration produces) survive the JSONL round
// trip bit-exactly — the property the record-then-replay determinism
// contract rests on.
func TestJSONLVehicleFloatExactness(t *testing.T) {
	c := &Collector{}
	vals := []float64{
		1.0 / 3.0, math.Pi * 100, math.Nextafter(250, 251), 1e-17,
		123456.78900000001, math.Sqrt(2) * 17.3,
	}
	for i, v := range vals {
		c.Vehicles = append(c.Vehicles, VehicleRecord{
			At: time.Duration(i) * 100 * time.Millisecond, Veh: i,
			Arc: v, Speed: v / 7,
		})
	}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got.Vehicles[i].Arc != v || got.Vehicles[i].Speed != v/7 {
			t.Fatalf("float %d not exact: wrote %b read %b", i, v, got.Vehicles[i].Arc)
		}
	}
}

// TestDataSentSeqsOutOfOrderAndRepeated: an Infostation cycling a
// 4-block file with every packet sent twice re-sends each seq many times,
// and records appended by hand arrive out of order; DataSentSeqs must
// still return each seq once, ascending.
func TestDataSentSeqsOutOfOrderAndRepeated(t *testing.T) {
	engine := sim.New()
	c := &Collector{}
	chCfg := radio.DefaultConfig()
	chCfg.ShadowSigmaDB = 0
	chCfg.FadingK = -1
	medium := mac.NewMedium(engine, radio.MustChannel(chCfg), c)
	st, err := medium.AddStation(100, func(time.Duration) geom.Point { return geom.Point{} }, nil, mac.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.New(engine, st, ap.Config{
		ID: 100, Flows: []packet.NodeID{1, 2}, PacketsPerSecond: 10,
		Repeats: 2, FirstSeq: 7, CycleLength: 4,
	}); err != nil {
		t.Fatal(err)
	}
	engine.RunUntil(2 * time.Second)
	for _, seq := range []uint32{42, 3, 42, 9, 1} {
		c.OnTx(100, packet.NewData(100, 1, seq, nil), 3*time.Second, time.Millisecond)
	}
	c.OnTx(5, packet.NewResponse(5, 1, 2, nil), 3*time.Second, time.Millisecond) // not DATA

	sent := 0
	for _, r := range c.Tx {
		if r.Type == packet.TypeData && r.Flow == 1 {
			sent++
		}
	}
	if sent < 2*4*2 {
		t.Fatalf("only %d flow-1 DATA transmissions; the cycle never repeated", sent)
	}
	if got, want := c.DataSentSeqs(1), []uint32{1, 3, 7, 8, 9, 10, 42}; !reflect.DeepEqual(got, want) {
		t.Fatalf("DataSentSeqs(1) = %v, want %v", got, want)
	}
	if got, want := c.DataSentSeqs(2), []uint32{7, 8, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("DataSentSeqs(2) = %v, want %v", got, want)
	}
}

// naiveSends recomputes a tally from tx records: per type the frames and
// their bytes, per flow the sorted distinct DATA seqs cut into runs
// wherever two neighbours differ by more than 1.
func naiveSends(tx []TxRecord) Sends {
	var s Sends
	seqs := map[packet.NodeID][]uint32{}
	for _, r := range tx {
		f := &s.Frames[r.Type-packet.TypeData]
		f.Count++
		f.Bytes += r.Bytes
		if r.Type == packet.TypeData {
			seqs[r.Flow] = append(seqs[r.Flow], r.Seq)
		}
	}
	var flows []packet.NodeID
	for flow := range seqs {
		flows = append(flows, flow)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, flow := range flows {
		list := seqs[flow]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		f := FlowSeqs{Flow: flow}
		for _, seq := range list {
			if n := len(f.Runs); n > 0 && uint64(seq) <= uint64(f.Runs[n-1].Last)+1 {
				f.Runs[n-1].Last = seq
				continue
			}
			f.Runs = append(f.Runs, SeqRun{seq, seq})
		}
		s.Flows = append(s.Flows, f)
	}
	return s
}

// TestSentMatchesTx: random frames of every type fed through OnTx, with
// receptions interleaved through OnRx, leave a Sent tally equal to one
// recomputed from Tx, and ReadJSONL rebuilds the same tally from the
// tx lines. The seqs come as carousel cycles, repeats, out-of-order
// stragglers and values at both ends of the uint32 range, so runs are
// extended, filled in from either side, joined and split.
func TestSentMatchesTx(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	flows := []packet.NodeID{0, 1, 2, 7, 0xFFFF}
	var runs, sends int
	for trial := 0; trial < 300; trial++ {
		c := &Collector{}
		base := []uint32{0, 1000, math.MaxUint32 - 20}[rng.Intn(3)]
		next := map[packet.NodeID]uint32{}
		for k := rng.Intn(200); k > 0; k-- {
			flow := flows[rng.Intn(len(flows))]
			var seq uint32
			switch rng.Intn(4) {
			case 0, 1: // the carousel's next seq, cycling over 24
				seq = base + next[flow]%24
				next[flow]++
			case 2: // a straggler anywhere in the window
				seq = base + uint32(rng.Intn(24))
			default: // far away
				seq = rng.Uint32()
			}
			f := &packet.Frame{Type: packet.TypeData + packet.Type(rng.Intn(4)), Src: 100, Dst: flow, Flow: flow, Seq: seq,
				Payload: make([]byte, rng.Intn(40))}
			c.OnTx(100, f, time.Duration(k), time.Millisecond)
			if rng.Intn(2) == 0 {
				c.OnRx(flow, f, mac.RxMeta{At: time.Duration(k)})
			}
		}
		want := naiveSends(c.Tx)
		if !reflect.DeepEqual(c.Sent, want) {
			t.Fatalf("trial %d: Sent = %+v\nrecomputed from Tx %+v", trial, c.Sent, want)
		}
		for _, f := range want.Flows {
			runs += len(f.Runs)
		}
		sends += len(c.Tx)

		var buf bytes.Buffer
		if err := c.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Sent, c.Sent) {
			t.Fatalf("trial %d: ReadJSONL rebuilt Sent = %+v\nrecorded %+v", trial, back.Sent, c.Sent)
		}
	}
	if runs < 1000 {
		t.Fatalf("random rounds made only %d runs from %d sends", runs, sends)
	}
}
