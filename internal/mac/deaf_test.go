package mac

import (
	"fmt"
	"testing"
	"time"
)

// TestDeafStationsMatchListening checks the deaf-station shortcut against
// full resolution without a test-only switch: one population runs twice,
// its untraced beacons deaf (no handler) in one run and listening (a
// no-op handler) in the other. The traced stations must see the same
// event stream, the medium must put the same frames on the air to the
// same candidates, and each run must account for every candidate.
func TestDeafStationsMatchListening(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Dense and busy enough that beacons keep deferring to frames they
			// sense: dropping either sensing path fails every seed.
			w := eqWorld{areaM: 300, simFor: 150 * time.Millisecond, maxVel: 30, sendsPb: 6, beacons: true}
			deaf := runEquivalenceWorld(t, seed, 60, EnumerateAuto, w)
			w.beaconsListen = true
			listening := runEquivalenceWorld(t, seed, 60, EnumerateAuto, w)

			if len(deaf.log) == 0 {
				t.Fatal("empty event log")
			}
			if len(deaf.log) != len(listening.log) {
				t.Fatalf("event counts differ: deaf %d vs listening %d", len(deaf.log), len(listening.log))
			}
			for i := range deaf.log {
				if deaf.log[i] != listening.log[i] {
					t.Fatalf("event %d differs:\ndeaf:      %s\nlistening: %s", i, deaf.log[i], listening.log[i])
				}
			}
			ds, ls := deaf.stats, listening.stats
			if ds.Transmissions != ls.Transmissions || ds.Candidates != ls.Candidates {
				t.Fatalf("transmissions %d/%d, candidates %d/%d (deaf/listening)",
					ds.Transmissions, ls.Transmissions, ds.Candidates, ls.Candidates)
			}
			if ds.Sensed == 0 || ls.Sensed != 0 {
				t.Fatalf("sensed: deaf run %d, listening run %d", ds.Sensed, ls.Sensed)
			}
			if resolved(ds) >= resolved(ls) {
				t.Fatalf("deaf run resolved %d receivers, listening run %d", resolved(ds), resolved(ls))
			}
			for name, r := range map[string]*eqRecorder{"deaf": deaf, "listening": listening} {
				s := r.stats
				if s.Candidates != resolved(s)+s.Culled+s.Sensed+uint64(r.inflight) {
					t.Fatalf("%s: candidates %d != deliveries %d + drops %v + culled %d + sensed %d + in flight %d",
						name, s.Candidates, s.Deliveries, s.Drops, s.Culled, s.Sensed, r.inflight)
				}
			}
		})
	}
}

// resolved counts the receivers a frame was resolved at: deliveries plus
// drops for every cause.
func resolved(s Stats) uint64 {
	n := s.Deliveries
	for _, d := range s.Drops {
		n += d
	}
	return n
}
