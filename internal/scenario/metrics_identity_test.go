package scenario

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
)

// TestMetricsIdentityAcrossFamilies is the telemetry layer's hard
// contract, checked on every scenario family behind the study catalogue:
// enabling the metrics registry must not change a single byte of any
// trace. The counters live entirely off the RNG and event-ordering
// paths, so an instrumented round and an uninstrumented round of the
// same unit are the same simulation. The instrumented round must also
// account for every event it scheduled: processed, cancelled or still
// pending when the round ended.
func TestMetricsIdentityAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}

	// The registry is process-global; make sure this test leaves it the
	// way the rest of the suite expects whatever happens inside.
	defer metrics.SetEnabled(false)

	for _, f := range families() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			metrics.SetEnabled(false)
			off := mediumTraceBytes(t, f.run(t, keep, 0))
			metrics.SetEnabled(true)
			scheduled, processed := mEventsScheduled.Value(), mEventsProcessed.Value()
			cancelled, pending := mEventsCancelled.Value(), mEventsPending.Value()
			on := mediumTraceBytes(t, f.run(t, keep, 0))
			metrics.SetEnabled(false)
			scheduled = mEventsScheduled.Value() - scheduled
			processed = mEventsProcessed.Value() - processed
			cancelled = mEventsCancelled.Value() - cancelled
			pending = mEventsPending.Value() - pending
			if scheduled == 0 || scheduled != processed+cancelled+pending {
				t.Fatalf("%s: scheduled %d != processed %d + cancelled %d + pending %d",
					f.name, scheduled, processed, cancelled, pending)
			}
			if len(off) == 0 {
				t.Fatalf("%s: empty trace", f.name)
			}
			if !bytes.Equal(off, on) {
				t.Fatalf("%s: trace changed when metrics were enabled", f.name)
			}
		})
	}
}
