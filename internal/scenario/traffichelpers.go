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

// trafficStore, when non-nil, is the on-disk tier below the in-memory
// cache: misses try a load before computing, and computed worlds are
// saved for later processes. Guarded by trafficCache.mu.
var trafficStore *traffic.Store

// SetTrafficTraceStore installs (dir != "") or removes (dir == "") the
// on-disk precomputed-world store consulted by every traffic scenario's
// record-once-replay-many path. Worlds already memoised in this process
// are unaffected. Sweeps pointed at a shared directory compute each
// traffic world exactly once across processes and serve every later arm
// from disk: keys are content digests (traffic.TraceKey), so equal inputs
// key equally in every process, and loads are byte-identical to an
// in-process recording (see the store round-trip tests). The store grows
// without bound: nothing evicts a world, so pruning the directory is the
// operator's call.
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

// world returns the traffic world of (tcfg, specs, d), filling its entry
// once: from the store when it holds a world that binds to the network,
// else by recording it, and then saving it. The key is
// traffic.TraceKey(tcfg, specs, d): the store schema and the
// storeutil.Digest of everything that shapes vehicle motion, computed
// here so no scenario can forget a field when its config grows one.
func (c *trafficTraceCache) world(tcfg traffic.Config, specs []traffic.VehicleSpec, d time.Duration) (*traffic.World, error) {
	key := traffic.TraceKey(tcfg, specs, d)
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
			// foreign schema), and a world that does not bind does not
			// fit the network: recompute and overwrite either.
			if w, err := store.Load(key); err == nil && w != nil {
				if e.world, err = w.Bind(tcfg.Network); err == nil {
					return
				}
			}
		}
		ts, err := traffic.New(tcfg, specs)
		if e.err = err; err != nil {
			return
		}
		ts.RunTo(d)
		e.world = ts.World()
		if store != nil {
			// Best effort: a read-only or full disk must not fail the
			// sweep, only disable its cross-process reuse.
			_ = store.Save(key, e.world)
		}
	})
	return e.world, e.err
}

// gridNets memoises street grids by spec. A GridNet is read-only once
// built (traffic.New and World.Bind only read and validate it), so every
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
