package scenario

import (
	"bytes"
	"testing"

	"repro/internal/mac"
	"repro/internal/trace"
)

// mediumTraceBytes serialises a round's trace through the JSONL
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

// countedRoundWith is countedRound with every medium the round builds
// forced to enumerate receivers by enum.
func countedRoundWith(t *testing.T, f familyCase, enum mac.Enumeration) (*trace.Collector, roundCounts) {
	t.Helper()
	defer func(prev mac.Enumeration) { mediumEnumeration = prev }(mediumEnumeration)
	mediumEnumeration = enum
	return countedRound(t, f, keep, 0)
}

// TestScenarioEquivalenceAcrossMediumModes asserts the station grid's
// core contract on every scenario family behind the study catalogue
// (A1..A18): the indexed medium — forced even below the small-population
// threshold, so every family genuinely runs the grid query — produces
// byte-identical traces to the exhaustive scan, and the same delivery
// counters — every candidate, cull, transmission, delivery and drop, at
// tracked and untraced stations alike. Small configurations keep it
// affordable; the per-family channel/geometry paths are exactly those
// the full studies run.
func TestScenarioEquivalenceAcrossMediumModes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}

	for _, f := range families() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			indexed, is := countedRoundWith(t, f, mac.EnumerateIndex)
			exhaustive, es := countedRoundWith(t, f, mac.EnumerateScan)
			assertSameTrace(t, f.name, indexed, exhaustive)
			if is.mac.IndexQueries == 0 || es.mac.IndexQueries != 0 {
				t.Fatalf("%s: index queries: indexed arm %d, exhaustive arm %d",
					f.name, is.mac.IndexQueries, es.mac.IndexQueries)
			}
			is.mac.IndexQueries, is.mac.ScanQueries = 0, 0
			es.mac.IndexQueries, es.mac.ScanQueries = 0, 0
			if is != es {
				t.Fatalf("%s: medium counters differ:\nindexed:    %+v\nexhaustive: %+v", f.name, is, es)
			}
			if f.name != "cityscale" {
				return
			}
			// cityscale is the family whose geometry actually exercises
			// culling (station spread far beyond the reception horizon):
			// the medium-level property tests cover randomized
			// topologies, this covers the full protocol stack on top.
			// With 90 stations spread over ~1.4 km and a ~300 m horizon,
			// every frame reaching every station would be a regression in
			// the horizon logic. The counters cover every station; the
			// trace only the tracked ones.
			stations := uint64(80 + 6 + 4)
			if resolved := is.mac.Deliveries + dropped(is.mac); resolved >= is.mac.Transmissions*(stations-1) {
				t.Fatalf("no culling: %d delivery events for %d transmissions among %d stations",
					resolved, is.mac.Transmissions, stations)
			}
		})
	}
}
