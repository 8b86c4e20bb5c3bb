package harness

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/metrics"
)

// The harness is the concurrent tier of the metrics story: work units run
// on pool workers, so everything here goes straight to the registry's
// atomics (the per-round plain counters live below, in sim and mac, and
// are flushed by the scenario layer). Handles resolve once at package
// init.
var (
	mUnitsTotal = metrics.NewCounter("harness_units_total",
		"work units submitted to the sweep pool")
	mUnitsDone = metrics.NewCounter("harness_units_done_total",
		"work units finished (computed or served from the result store)")
	mUnitsComputed = metrics.NewCounter("harness_units_computed_total",
		"work units simulated in this process")
	mUnitsCached = metrics.NewCounter("harness_units_cached_total",
		"work units served from the content-addressed result store")
	mUnitWall = metrics.NewHistogram("harness_unit_wall_seconds",
		"wall time per work unit (cached loads included)")
	mUnitsRetried = metrics.NewCounter("harness_units_retried_total",
		"failed unit attempts that were retried")
	mUnitsFailed = metrics.NewCounter("harness_units_failed_total",
		"work units that still failed after their retry")
	mUnitsHung = metrics.NewCounter("harness_units_hung_total",
		"work units flagged by the -unit-timeout watchdog")
)

// MetricsFile is the name of the per-run metrics snapshot written beside
// timings.json. Like timings it is provenance, not results: its counts
// depend on what was cached when the sweep ran, so it is excluded — with
// timings.json — from byte-identity comparisons of output directories.
// Unlike timings it carries no wall times: only the deterministic
// (counter/gauge) part of the registry snapshot is persisted, so two cold
// runs of the same sweep write identical files.
const MetricsFile = "metrics.json"

// Progress is a point-in-time view of a running sweep, for progress
// tickers and the sweepd progress endpoint. Counters are always on —
// they cost one atomic add per work unit, far off any simulation path.
type Progress struct {
	UnitsTotal    int64 `json:"units_total"`
	UnitsDone     int64 `json:"units_done"`
	UnitsComputed int64 `json:"units_computed"`
	UnitsCached   int64 `json:"units_cached"`
}

// Progress returns the runner's live unit counters.
func (r *Runner) Progress() Progress {
	return Progress{
		UnitsTotal:    r.unitsTotal.Load(),
		UnitsDone:     r.unitsDone.Load(),
		UnitsComputed: r.unitsComputed.Load(),
		UnitsCached:   r.unitsCached.Load(),
	}
}

// writeMetrics writes the run's metrics.json when the registry is
// enabled: the deterministic part of the default registry's snapshot.
// No-op otherwise.
func (r *Runner) writeMetrics() error {
	if !metrics.Enabled() {
		return nil
	}
	snap := metrics.Default().Snapshot().Deterministic()
	path := filepath.Join(r.opts.OutDir, MetricsFile)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	w := bufio.NewWriter(f)
	err = snap.WriteJSON(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("harness: writing %s: %w", path, err)
	}
	r.logf("wrote %s", path)
	return nil
}

// logStoreSummary emits the one-line, always-on resume summary from the
// store's own counters: how much the store served versus computed.
func (r *Runner) logStoreSummary() {
	if r.store == nil {
		return
	}
	st := r.store.Stats()
	r.logf("result store: %d units hit / %d computed / %d bytes read",
		st.Hits, r.unitsComputed.Load(), st.ReadBytes)
}
