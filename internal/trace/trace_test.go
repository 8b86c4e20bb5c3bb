package trace

import (
	"bytes"
	"math"
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
