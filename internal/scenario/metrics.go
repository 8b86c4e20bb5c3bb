package scenario

import (
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The scenario layer is where per-round simulations meet the process-wide
// metrics registry: engines and media keep plain single-threaded counters
// (sim.Engine.Stats, mac.Medium.Stats), and runSetup flushes them here
// once per round behind a single metrics.Enabled() branch. Handles resolve once, at
// package init; flushing is a handful of atomic adds per round.
//
// Determinism contract (see the README's Observability section): every
// count flushed here is a pure function of the simulation — flushing it,
// or not, never feeds back into scheduling, randomness or traces.
var (
	mEventsScheduled = metrics.NewCounter("sim_events_scheduled_total",
		"events accepted by the simulation scheduler, all rounds")
	mEventsProcessed = metrics.NewCounter("sim_events_processed_total",
		"events whose callbacks ran, all rounds")
	mEventsCancelled = metrics.NewCounter("sim_events_cancelled_total",
		"events cancelled before their callbacks ran, all rounds")
	mEventsPending = metrics.NewCounter("sim_events_pending_total",
		"events still pending when their round ended, all rounds")
	mEventPoolHits = metrics.NewCounter("sim_event_pool_hits_total",
		"schedules served from the engine free list")
	mEventsRecycled = metrics.NewCounter("sim_events_recycled_total",
		"popped events returned to the engine free list")
	mHeapHighWater = metrics.NewGauge("sim_heap_depth_high_water",
		"deepest event-queue depth seen in any single round")

	mTransmissions = metrics.NewCounter("mac_transmissions_total",
		"frames put on the air")
	mDeliveries = metrics.NewCounter("mac_deliveries_total",
		"successful frame receptions at resolved (listening) receivers; deaf stations only sense")
	mIndexQueries = metrics.NewCounter("mac_index_queries_total",
		"receiver-set enumerations answered by the station grid")
	mScanQueries = metrics.NewCounter("mac_scan_queries_total",
		"receiver-set enumerations answered by the exhaustive scan")
	mIndexRebuilds = metrics.NewCounter("mac_index_rebuilds_total",
		"station-grid builds, one per refresh")
	mCandidates = metrics.NewCounter("mac_candidates_total",
		"stations inside a frame's reception horizon, per transmission")
	mCulled = metrics.NewCounter("mac_culled_total",
		"candidates dropped by the stage-zero certain-loss cull, or deaf ones below carrier sense")
	mSensed = metrics.NewCounter("mac_sensed_total",
		"deaf candidates (untraced, no handler) that only carrier-sensed a frame; candidates = deliveries + drops + culled + sensed + in flight")
	mInflightReceivers = metrics.NewCounter("mac_inflight_receivers_total",
		"receivers of frames still on the air when their round ended, all rounds")
	mUntraced = metrics.NewCounter("mac_untraced_events_total",
		"transmissions, receptions and drops left out of the trace (untraced stations)")

	// Always 0; kept registered only until ROADMAP item 1's bench edit drops mac.wire_reuse_ratio.
	_ = metrics.NewCounter("mac_wire_reuse_total", "always 0: the medium keeps no wire buffers")
	_ = metrics.NewCounter("mac_wire_alloc_total", "always 0: the medium keeps no wire buffers")

	mCacheHits = metrics.NewCounter("traffic_trace_cache_hits_total",
		"in-memory traffic-trace cache hits (sweep arms sharing a recorded world)")
	mCacheMisses = metrics.NewCounter("traffic_trace_cache_misses_total",
		"in-memory traffic-trace cache misses (worlds recorded)")

	// Always 0; kept registered only until ROADMAP item 1's bench edit drops the traffic.store_* series.
	_ = metrics.NewCounter("traffic_store_hits_total", "always 0: traffic worlds live only in the in-memory cache")
	_ = metrics.NewCounter("traffic_store_read_bytes_total", "always 0: traffic worlds live only in the in-memory cache")
	_ = metrics.NewCounter("traffic_store_written_bytes_total", "always 0: traffic worlds live only in the in-memory cache")

	// mDrops indexes mac_drops_total{cause=...} by mac.DropReason, the
	// same indexing mac.Stats.Drops uses; slot 0 is unused.
	mDrops = [4]*metrics.Counter{
		mac.DropChannel:    dropCounter(mac.DropChannel),
		mac.DropCollision:  dropCounter(mac.DropCollision),
		mac.DropHalfDuplex: dropCounter(mac.DropHalfDuplex),
	}
)

func dropCounter(r mac.DropReason) *metrics.Counter {
	return metrics.NewLabelledCounter("mac_drops_total",
		"frames not delivered to a resolved (listening) receiver, by cause", "cause", r.String())
}

// flushRunStats folds one finished round's engine and medium counters
// into the registry. Callers gate on metrics.Enabled(); the flush itself
// is unconditional.
func flushRunStats(engine *sim.Engine, medium *mac.Medium) {
	es := engine.Stats()
	mEventsScheduled.Add(es.Scheduled)
	mEventsProcessed.Add(es.Processed)
	mEventsCancelled.Add(es.Cancelled)
	mEventsPending.Add(uint64(engine.Pending()))
	mEventPoolHits.Add(es.PoolHits)
	mEventsRecycled.Add(es.Recycled)
	mHeapHighWater.SetMax(int64(es.HeapHighWater))

	ms := medium.Stats()
	mTransmissions.Add(ms.Transmissions)
	mDeliveries.Add(ms.Deliveries)
	mIndexQueries.Add(ms.IndexQueries)
	mScanQueries.Add(ms.ScanQueries)
	mIndexRebuilds.Add(ms.IndexRebuilds)
	mCandidates.Add(ms.Candidates)
	mCulled.Add(ms.Culled)
	mSensed.Add(ms.Sensed)
	mInflightReceivers.Add(uint64(medium.InFlightReceivers()))
	mUntraced.Add(ms.Untraced)
	for reason, c := range mDrops {
		if c != nil {
			c.Add(ms.Drops[reason])
		}
	}
}
