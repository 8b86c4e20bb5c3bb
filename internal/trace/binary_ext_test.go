package trace_test

import (
	"bytes"
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
