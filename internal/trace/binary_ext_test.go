package trace_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// smallCityScale is a cityscale config shrunk to test size: the same
// world builder and replay path, far fewer vehicles and seconds.
func smallCityScale() scenario.CityScaleConfig {
	cfg := scenario.DefaultCityScale()
	cfg.Rounds, cfg.Cars, cfg.Background = 1, 2, 6
	cfg.GridRows, cfg.GridCols = 4, 4
	cfg.Duration = 8 * time.Second
	return cfg
}

func jsonl(t *testing.T, c *trace.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryMatchesJSONL: real streams — a testbed protocol trace and a
// cityscale round's protocol trace and traffic world — export the same
// JSONL bytes after a binary round trip as before it, so serving them
// from a store changes nothing a user or a report can see.
func TestBinaryMatchesJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	testbed, _, err := scenario.TestbedRound(scenario.DefaultTestbed(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cityProto, cityTraffic, err := scenario.CityScaleRound(smallCityScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		col  *trace.Collector
	}{{"testbed", testbed}, {"cityscale protocol", cityProto}, {"cityscale traffic", cityTraffic}} {
		if n := s.col.Counts(); n.Tx+n.Vehicles == 0 {
			t.Fatalf("%s: empty stream %+v", s.name, n)
		}
		back, err := trace.DecodeBinary(s.col.AppendBinary(nil))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !bytes.Equal(jsonl(t, back), jsonl(t, s.col)) {
			t.Fatalf("%s: JSONL export differs after the binary round trip", s.name)
		}
	}
}

// TestBinaryCompactness guards the delta-varint encoding's size: the
// bytes per record of each category a small cityscale round fills may
// not exceed the measured size plus 10% (measured: tx 10.24, rx 25.27,
// drop 9.69, vehicle 20.50; fixed-width they took 27, 37, 20 and 48).
func TestBinaryCompactness(t *testing.T) {
	proto, traffic, err := scenario.CityScaleRound(smallCityScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	empty := len((&trace.Collector{}).AppendBinary(nil))
	for _, cat := range []struct {
		name  string
		col   trace.Collector
		n     int
		bound float64
	}{
		{"tx", trace.Collector{Tx: proto.Tx}, len(proto.Tx), 11.3},
		{"rx", trace.Collector{Rx: proto.Rx}, len(proto.Rx), 27.8},
		{"drop", trace.Collector{Drops: proto.Drops}, len(proto.Drops), 10.7},
		{"vehicle", trace.Collector{Vehicles: traffic.Vehicles}, len(traffic.Vehicles), 22.6},
	} {
		if cat.n < 100 {
			t.Fatalf("%s: only %d records", cat.name, cat.n)
		}
		perRecord := float64(len(cat.col.AppendBinary(nil))-empty) / float64(cat.n)
		if perRecord > cat.bound {
			t.Errorf("%s: %.2f bytes per record, bound %.2f", cat.name, perRecord, cat.bound)
		}
	}
}

// benchRound is one recorded cityscale round — the default city, or the
// small one under -short — recorded once for both codec benchmarks.
var benchRound = sync.OnceValues(func() ([2]*trace.Collector, error) {
	cfg := scenario.DefaultCityScale()
	cfg.Rounds = 1
	if testing.Short() {
		cfg = smallCityScale()
	}
	proto, traffic, err := scenario.CityScaleRound(cfg, 0)
	return [2]*trace.Collector{proto, traffic}, err
})

// benchStreams runs fn once per stream of the recorded round: its
// protocol trace and its traffic world.
func benchStreams(b *testing.B, fn func(b *testing.B, col *trace.Collector, enc []byte)) {
	round, err := benchRound()
	if err != nil {
		b.Fatal(err)
	}
	for i, name := range []string{"protocol", "traffic"} {
		col := round[i]
		enc := col.AppendBinary(nil)
		n := col.Counts()
		records := n.Tx + n.Rx + n.Drops + n.Phases + n.Recovered + n.Completed + n.Vehicles
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			fn(b, col, enc)
			b.ReportMetric(float64(len(enc))/float64(records), "B/record")
		})
	}
}

// BenchmarkBinaryEncode measures AppendBinary on a recorded cityscale
// round, per stream; B/record is the encoding's size.
func BenchmarkBinaryEncode(b *testing.B) {
	benchStreams(b, func(b *testing.B, col *trace.Collector, enc []byte) {
		for i := 0; i < b.N; i++ {
			enc = col.AppendBinary(enc[:0])
		}
	})
}

// BenchmarkBinaryDecode measures DecodeBinary on a recorded cityscale
// round, per stream.
func BenchmarkBinaryDecode(b *testing.B) {
	benchStreams(b, func(b *testing.B, _ *trace.Collector, enc []byte) {
		for i := 0; i < b.N; i++ {
			if _, err := trace.DecodeBinary(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
