package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/storeutil"
	"repro/internal/traffic"
)

// trafficTraceCache memoises recorded traffic worlds so parameter sweeps
// that vary only protocol settings (coop on/off, selection policy, ...)
// compute each expensive closed-loop traffic round once and replay it in
// every arm. Entries are keyed by every parameter that shapes the traffic
// (never by protocol settings) and filled under a per-key once, so
// concurrent harness workers racing on the same round share one compute.
type trafficTraceCache struct {
	mu sync.Mutex
	m  map[string]*trafficTraceEntry
}

type trafficTraceEntry struct {
	once  sync.Once
	world *traffic.World
	err   error
}

// capTrafficCacheEntries bounds the memoised worlds; the map resets
// wholesale past it (in-flight computes keep their entries alive through
// their own references).
const capTrafficCacheEntries = 64

var trafficCache = &trafficTraceCache{m: make(map[string]*trafficTraceEntry)}

// world returns the traffic world of (tcfg, specs, d), recording it
// once. The key is traffic.TraceKey(tcfg, specs, d): the
// storeutil.Digest of everything that shapes vehicle motion, computed
// here so no scenario can forget a field when its config grows one.
func (c *trafficTraceCache) world(tcfg traffic.Config, specs []traffic.VehicleSpec, d time.Duration) (*traffic.World, error) {
	key := traffic.TraceKey(tcfg, specs, d)
	c.mu.Lock()
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
		ts, err := traffic.New(tcfg, specs)
		if e.err = err; err != nil {
			return
		}
		ts.RunTo(d)
		e.world = ts.World()
	})
	return e.world, e.err
}

// gridNets memoises street grids by spec. A GridNet is read-only once
// built (traffic.New only reads and validates it), so every
// round and every concurrent unit over one spec shares one build instead
// of rebuilding the same grid per round. A process builds one grid per
// distinct spec, and the catalogue has a handful.
var gridNets = struct {
	mu sync.Mutex
	m  map[string]*traffic.GridNet // by storeutil.Digest(spec)
}{m: make(map[string]*traffic.GridNet)}

// gridNetwork returns the shared street grid for spec, building it on
// first use.
func gridNetwork(spec traffic.GridSpec) (*traffic.GridNet, error) {
	key := storeutil.Digest(spec)
	if spec.Actuated != nil {
		// The shared grid must not alias the caller's parameters.
		params := *spec.Actuated
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

// trafficModels builds the mobility models of specs[:n], in order, over
// a traffic world: the traffic run is recorded once (via the shared
// cache) and replayed, the record-once, sweep-many path. The cache hands
// every arm the one immutable world by reference; it holds every
// vehicle's track.
func trafficModels(tcfg traffic.Config, specs []traffic.VehicleSpec, d time.Duration, n int) ([]mobility.Model, *traffic.World, error) {
	world, err := trafficCache.world(tcfg, specs, d)
	if err != nil {
		return nil, nil, err
	}
	models := make([]mobility.Model, n)
	for i := range models {
		m, err := world.Model(i)
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: vehicle %d: %w", i, err)
		}
		models[i] = m
	}
	return models, world, nil
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

// TrafficSummary is a traffic world's summary (traffic.Summary): mean
// speed over the run and the share of samples below the crawling
// threshold (2 m/s), the jam exposure of the whole population. It is all
// the studies read of a traffic world, so a round carries and a stored
// unit keeps this summary instead of the world; the zero value stands
// for a round without a traffic world.
type TrafficSummary struct {
	MeanSpeedMPS float64 `json:"mean_speed_mps,omitempty"`
	CrawlShare   float64 `json:"crawl_share,omitempty"`
	Samples      int     `json:"samples,omitempty"`
}
