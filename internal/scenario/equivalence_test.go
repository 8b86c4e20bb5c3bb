package scenario

import (
	"bytes"
	"testing"

	"repro/internal/mac"
	"repro/internal/trace"
)

// traceBytes serialises a round's full event record through the JSONL
// wire format — the strictest practical definition of "the same trace".
func mediumTraceBytes(t *testing.T, col *trace.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertSameTrace(t *testing.T, name string, indexed, exhaustive *trace.Collector) {
	t.Helper()
	ib, eb := mediumTraceBytes(t, indexed), mediumTraceBytes(t, exhaustive)
	if len(ib) == 0 {
		t.Fatalf("%s: empty trace", name)
	}
	if !bytes.Equal(ib, eb) {
		// Find the first differing line for a useful failure message.
		il := bytes.Split(ib, []byte("\n"))
		el := bytes.Split(eb, []byte("\n"))
		n := len(il)
		if len(el) < n {
			n = len(el)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(il[i], el[i]) {
				t.Fatalf("%s: traces differ at line %d:\nindexed:    %s\nexhaustive: %s", name, i, il[i], el[i])
			}
		}
		t.Fatalf("%s: traces differ in length: %d vs %d lines", name, len(il), len(el))
	}
}

var (
	exhaustiveMedium = mac.MediumConfig{Exhaustive: true}
	// indexedMedium forces the spatial index even below the small-
	// population fallback threshold, so every family genuinely runs the
	// indexed enumeration rather than two identical scans.
	indexedMedium = mac.MediumConfig{MinIndexStations: -1}
)

// TestScenarioEquivalenceAcrossMediumModes asserts the refactor's core
// contract on every scenario family behind the study catalogue
// (A1..A17): the spatially-indexed medium produces byte-identical traces
// to the exhaustive fallback. Small configurations keep it affordable;
// the per-family channel/geometry paths are exactly those the full
// studies run.
func TestScenarioEquivalenceAcrossMediumModes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}

	for _, f := range families() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			run := func(m mac.MediumConfig) *trace.Collector {
				return f.run(t, func(c *Common) { c.Medium = m }, 0)
			}
			indexed := run(indexedMedium)
			assertSameTrace(t, f.name, indexed, run(exhaustiveMedium))
			if f.name != "cityscale" {
				return
			}
			// cityscale is the family whose geometry actually exercises
			// culling (station spread far beyond the reception horizon):
			// the medium-level property tests cover randomized
			// topologies, this covers the full protocol stack on top.
			// With 90 stations spread over ~1.4 km and a ~300 m horizon,
			// every frame reaching every station would be a regression in
			// the horizon logic.
			c := indexed.Counts()
			stations := 80 + 6 + 4
			if c.Rx+c.Drops >= c.Tx*(stations-1) {
				t.Fatalf("no culling: %d delivery events for %d transmissions among %d stations",
					c.Rx+c.Drops, c.Tx, stations)
			}
		})
	}
}
