package scenario

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestMetricsIdentityAcrossFamilies is the telemetry layer's hard
// contract, checked on every scenario family behind the study catalogue:
// enabling the metrics registry must not change a single byte of any
// trace. The counters live entirely off the RNG and event-ordering
// paths, so an instrumented round and an uninstrumented round of the
// same unit are the same simulation. The instrumented round must also
// account for every event it scheduled — processed, cancelled or still
// pending when the round ended — and for every medium event: traced, or
// left out because its station is untraced (checkTraceScope). One extra
// testbed round runs the epidemic baseline, whose AP-timeout and push
// Timers must show up as cancelled events in the identity.
func TestMetricsIdentityAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}

	// The registry is process-global; make sure this test leaves it the
	// way the rest of the suite expects whatever happens inside.
	defer metrics.SetEnabled(false)

	for _, f := range append(families(), epidemicTestbed()) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			metrics.SetEnabled(false)
			off := mediumTraceBytes(t, f.run(t, keep, 0))
			col, c := countedRound(t, f, keep, 0)
			on := mediumTraceBytes(t, col)
			if c.scheduled == 0 || c.scheduled != c.processed+c.cancelled+c.pending {
				t.Fatalf("%s: scheduled %d != processed %d + cancelled %d + pending %d",
					f.name, c.scheduled, c.processed, c.cancelled, c.pending)
			}
			if f.name == epidemicArm && c.cancelled == 0 {
				t.Fatalf("%s: no cancelled events", f.name)
			}
			if len(off) == 0 {
				t.Fatalf("%s: empty trace", f.name)
			}
			if !bytes.Equal(off, on) {
				t.Fatalf("%s: trace changed when metrics were enabled", f.name)
			}
			checkTraceScope(t, f, col, c)
		})
	}
}

const epidemicArm = "testbed-epidemic"

// epidemicTestbed is the testbed family with every car running the
// epidemic baseline instead of C-ARQ, as in the epidemic study.
func epidemicTestbed() familyCase {
	cfg := DefaultTestbed()
	cfg.Rounds = 1
	cfg.Factory = func(id packet.NodeID, engine *sim.Engine, port *mac.Station, seed int64, obs carq.Observer) (Node, error) {
		return baseline.NewEpidemicNode(id, engine, port,
			sim.Stream(seed, fmt.Sprintf("epidemic-%v", id)), obs)
	}
	f := family(cfg)
	f.name = epidemicArm
	return f
}

// checkTraceScope checks a round's trace against the scope rule: every
// medium event is either in the trace or counted as untraced, the
// beacon-only background vehicles (IDs from BackgroundID, city families
// only) are the untraced and deaf stations, and every platoon car is
// traced.
func checkTraceScope(t *testing.T, f familyCase, col *trace.Collector, c roundCounts) {
	t.Helper()
	events := c.mac.Transmissions + c.mac.Deliveries + dropped(c.mac)
	if traced := uint64(len(col.Tx) + len(col.Rx) + len(col.Drops)); traced+c.mac.Untraced != events {
		t.Fatalf("%s: %d traced + %d untraced events != %d medium events", f.name, traced, c.mac.Untraced, events)
	}
	if beacons := f.name == "cityscale" || f.name == "citydemand"; beacons != (c.mac.Untraced > 0) || beacons != (c.mac.Sensed > 0) {
		t.Fatalf("%s: %d untraced events, %d sensed receivers (background beacons: %v)",
			f.name, c.mac.Untraced, c.mac.Sensed, beacons)
	}
	sent := map[packet.NodeID]bool{}
	for _, r := range col.Tx {
		if r.Src >= BackgroundID {
			t.Fatalf("%s: traced transmission from beacon %v", f.name, r.Src)
		}
		sent[r.Src] = true
	}
	for _, r := range col.Rx {
		if r.Dst >= BackgroundID {
			t.Fatalf("%s: traced reception at beacon %v", f.name, r.Dst)
		}
	}
	for _, r := range col.Drops {
		if r.Dst >= BackgroundID {
			t.Fatalf("%s: traced drop at beacon %v", f.name, r.Dst)
		}
	}
	for _, id := range CarIDs(f.cars) {
		if !sent[id] {
			t.Fatalf("%s: platoon car %v has no traced transmission", f.name, id)
		}
	}
}
