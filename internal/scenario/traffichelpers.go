package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// trafficTraceCache memoises recorded traffic streams so parameter sweeps
// that vary only protocol settings (coop on/off, selection policy, ...)
// compute each expensive closed-loop traffic round once and replay it in
// every arm. Entries are keyed by every parameter that shapes the traffic
// (never by protocol settings) and computed under a per-key once, so
// concurrent harness workers racing on the same round share one compute.
type trafficTraceCache struct {
	mu sync.Mutex
	m  map[string]*trafficTraceEntry
}

type trafficTraceEntry struct {
	once sync.Once
	col  *trace.Collector
	err  error
}

// capTrafficCacheEntries bounds the memoised streams; the map resets
// wholesale past it (in-flight computes keep their entries alive through
// their own references).
const capTrafficCacheEntries = 64

var trafficCache = &trafficTraceCache{m: make(map[string]*trafficTraceEntry)}

// trafficStore, when non-nil, is the on-disk tier below the in-memory
// cache: misses try a load before computing, and computed streams are
// saved for later processes. Guarded by trafficCache.mu.
var trafficStore *traffic.Store

// SetTrafficTraceStore installs (dir != "") or removes (dir == "") the
// on-disk precomputed-trace store consulted by every traffic scenario's
// record-once-replay-many path. Streams already memoised in this process
// are unaffected. Sweeps pointed at a shared directory compute each
// traffic world exactly once across processes and serve every later arm
// from disk; loads are byte-identical to an in-process recording (see the
// store round-trip tests). The store grows without bound: nothing evicts
// a stream, so pruning the directory is the operator's call.
func SetTrafficTraceStore(dir string) error {
	var st *traffic.Store
	if dir != "" {
		var err error
		if st, err = traffic.NewStore(dir); err != nil {
			return err
		}
	}
	trafficCache.mu.Lock()
	trafficStore = st
	trafficCache.mu.Unlock()
	return nil
}

func (c *trafficTraceCache) get(key string, compute func() (*trace.Collector, error)) (*trace.Collector, error) {
	c.mu.Lock()
	store := trafficStore
	e, ok := c.m[key]
	if !ok {
		if len(c.m) >= capTrafficCacheEntries {
			c.m = make(map[string]*trafficTraceEntry)
		}
		e = &trafficTraceEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	if metrics.Enabled() {
		if ok {
			mCacheHits.Inc()
		} else {
			mCacheMisses.Inc()
		}
	}
	e.once.Do(func() {
		if store != nil {
			// A load error means an unusable file (corrupt, truncated,
			// foreign schema): recompute and overwrite it.
			if col, err := store.Load(key); err == nil && col != nil {
				e.col = col
				return
			}
		}
		e.col, e.err = compute()
		if e.err == nil && store != nil {
			// Best effort: a read-only or full disk must not fail the
			// sweep, only disable its cross-process reuse.
			_ = store.Save(key, e.col)
		}
	})
	return e.col, e.err
}

// gridNets memoises street grids by spec. A GridNet is read-only once
// built (traffic.New and NewReplay only read and validate it), so every
// round and every concurrent unit over one spec shares one build instead
// of rebuilding the same grid per round. A process builds one grid per
// distinct spec, and the catalogue has a handful.
var gridNets = struct {
	mu sync.Mutex
	m  map[gridKey]*traffic.GridNet
}{m: make(map[gridKey]*traffic.GridNet)}

// gridKey is a GridSpec by value: Actuated's parameters instead of the
// caller's pointer.
type gridKey struct {
	spec     traffic.GridSpec // Actuated cleared
	actuated bool
	params   traffic.ActuatedParams
}

// gridNetwork returns the shared street grid for spec, building it on
// first use.
func gridNetwork(spec traffic.GridSpec) (*traffic.GridNet, error) {
	key := gridKey{spec: spec}
	if spec.Actuated != nil {
		// The shared grid must not alias the caller's parameters.
		params := *spec.Actuated
		key.spec.Actuated, key.actuated, key.params = nil, true, params
		spec.Actuated = &params
	}
	gridNets.mu.Lock()
	defer gridNets.mu.Unlock()
	if g, ok := gridNets.m[key]; ok {
		return g, nil
	}
	g, err := traffic.NewGridNetwork(spec)
	if err != nil {
		return nil, err
	}
	gridNets.m[key] = g
	return g, nil
}

// recordTrafficTrace runs one traffic simulation to completion with
// recording on and returns the recorded stream.
func recordTrafficTrace(tcfg traffic.Config, specs []traffic.VehicleSpec, d time.Duration) (*trace.Collector, error) {
	rec := &trace.Collector{}
	tcfg.Recorder = rec
	ts, err := traffic.New(tcfg, specs)
	if err != nil {
		return nil, err
	}
	ts.RunTo(d)
	return rec, nil
}

// trafficModels builds the platoon cars' mobility models over a traffic
// world: the traffic run is computed up front (via the shared cache) and
// its recorded stream replayed — the record-once, sweep-many path. The
// cache hands every arm the one recorded collector by reference, so
// nothing may modify it.
//
// The cache key is traffic.TraceKey(tcfg, specs, d): the exhaustive
// digest of everything that shapes vehicle motion, computed here so no
// scenario can forget a field when its config grows one.
//
// The first nPlatoon specs are the platoon; their models are returned in
// order. The stream holds every vehicle's recorded track.
func trafficModels(net *traffic.Network, tcfg traffic.Config, specs []traffic.VehicleSpec,
	d time.Duration, nPlatoon int) ([]mobility.Model, *trace.Collector, error) {

	col, err := trafficCache.get(traffic.TraceKey(tcfg, specs, d), func() (*trace.Collector, error) {
		return recordTrafficTrace(tcfg, specs, d)
	})
	if err != nil {
		return nil, nil, err
	}
	rp, err := traffic.NewReplay(net, col)
	if err != nil {
		return nil, nil, err
	}
	models := make([]mobility.Model, nPlatoon)
	for i := range models {
		m, err := rp.Model(i)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: platoon vehicle %d: %w", i, err)
		}
		models[i] = m
	}
	return models, col, nil
}

// jitterDriver applies the per-round heterogeneity every traffic scenario
// uses: mild gaussian variation of desired speed, headway and
// aggressiveness, deterministically drawn from the round's stream.
func jitterDriver(base traffic.DriverParams, rng interface{ NormFloat64() float64 }) traffic.DriverParams {
	d := base
	d.DesiredSpeedMPS *= clamp(1+0.08*rng.NormFloat64(), 0.7, 1.3)
	d.TimeHeadwayS *= clamp(1+0.15*rng.NormFloat64(), 0.6, 1.6)
	d.MaxAccelMPS2 *= clamp(1+0.10*rng.NormFloat64(), 0.6, 1.5)
	return d
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TrafficSummary condenses a recorded traffic stream for reports: mean
// speed over the run and the share of samples below the crawling
// threshold (2 m/s) — the jam exposure of the whole population. It is
// all the studies read of a traffic world, so a round carries and a
// stored unit keeps this summary instead of the stream; the zero value
// stands for a round without a traffic world.
type TrafficSummary struct {
	MeanSpeedMPS float64 `json:"mean_speed_mps,omitempty"`
	CrawlShare   float64 `json:"crawl_share,omitempty"`
	Samples      int     `json:"samples,omitempty"`
}

// SummarizeTraffic computes the summary of one recorded stream.
func SummarizeTraffic(col *trace.Collector) TrafficSummary {
	var s TrafficSummary
	if col == nil || len(col.Vehicles) == 0 {
		return s
	}
	var speedSum float64
	crawls := 0
	for _, r := range col.Vehicles {
		speedSum += r.Speed
		if r.Speed < 2 {
			crawls++
		}
	}
	s.Samples = len(col.Vehicles)
	s.MeanSpeedMPS = speedSum / float64(s.Samples)
	s.CrawlShare = float64(crawls) / float64(s.Samples)
	return s
}
