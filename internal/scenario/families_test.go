package scenario

import (
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// familyCase is one row of the scenario-family table the cross-family
// suites loop over: every family behind the study catalogue at a small
// configuration that still runs the study's channel and geometry paths.
type familyCase struct {
	name string
	// cars is the small config's platoon size; its cars are CarIDs(cars).
	cars int
	// config returns the small config with with applied to its shared
	// settings.
	config func(with func(*Common)) any
	// run runs one round of the small config with with applied and
	// returns its protocol trace.
	run func(t *testing.T, with func(*Common), round int) *trace.Collector
}

// family builds a table row for a round-based family from its small
// config.
func family[C Family[C, R], R any, P interface {
	*C
	Base() *Common
}](cfg C) familyCase {
	config := func(with func(*Common)) C {
		c := cfg
		with(P(&c).Base())
		return c
	}
	return familyCase{
		name:   cfg.Name(),
		cars:   P(&cfg).Base().Cars,
		config: func(with func(*Common)) any { return config(with) },
		run: func(t *testing.T, with func(*Common), round int) *trace.Collector {
			return runRound(t, config(with), round).Protocol
		},
	}
}

// families is the cross-family table, in study-catalogue order.
func families() []familyCase {
	testbed := DefaultTestbed()
	testbed.Rounds = 1
	highway := DefaultHighway()
	highway.Rounds = 1
	corridor := DefaultCorridor()
	corridor.Rounds = 1
	twoway := DefaultTwoWay()
	twoway.Rounds = 1
	download := DefaultDownload()
	download.FileBlocks = 40
	download.MaxLaps = 2
	grid := DefaultTrafficGrid()
	grid.Rounds = 1
	grid.Duration = 60 * time.Second
	stopgo := DefaultStopGo()
	stopgo.Rounds = 1
	demand := DefaultCityDemand()
	demand.Rounds = 1
	demand.Cars = 4
	demand.GridRows, demand.GridCols = 8, 8
	demand.DemandScale = 2
	demand.Duration = 30 * time.Second
	city := DefaultCityScale()
	city.GridRows, city.GridCols = 8, 8
	city.Background = 80
	city.Cars = 6
	city.Duration = 30 * time.Second
	city.Rounds = 1

	return []familyCase{
		family(testbed),
		family(highway),
		family(corridor),
		family(twoway),
		family(download),
		family(grid),
		family(stopgo),
		family(demand),
		family(city),
	}
}

// TestNormalizedKeepsDefaults: a family default is written once, in its
// DefaultX, and Normalized only validates — so every family's default
// config comes back from Normalized unchanged, funcs included (compared
// through ConfigDigest, which walks every field).
func TestNormalizedKeepsDefaults(t *testing.T) {
	for name, check := range map[string]func() (string, string, error){
		"testbed":     func() (string, string, error) { return normalizedDigests(DefaultTestbed()) },
		"highway":     func() (string, string, error) { return normalizedDigests(DefaultHighway()) },
		"corridor":    func() (string, string, error) { return normalizedDigests(DefaultCorridor()) },
		"twoway":      func() (string, string, error) { return normalizedDigests(DefaultTwoWay()) },
		"download":    func() (string, string, error) { return normalizedDigests(DefaultDownload()) },
		"trafficgrid": func() (string, string, error) { return normalizedDigests(DefaultTrafficGrid()) },
		"stopgo":      func() (string, string, error) { return normalizedDigests(DefaultStopGo()) },
		"citydemand":  func() (string, string, error) { return normalizedDigests(DefaultCityDemand()) },
		"cityscale":   func() (string, string, error) { return normalizedDigests(DefaultCityScale()) },
	} {
		before, after, err := check()
		if err != nil {
			t.Errorf("%s: default config rejected: %v", name, err)
		} else if before != after {
			t.Errorf("%s: Normalized changed the default config", name)
		}
	}
}

// normalizedDigests returns the digests of cfg and of cfg normalized.
func normalizedDigests[C Family[C, R], R any](cfg C) (before, after string, err error) {
	n, err := cfg.Normalized()
	return ConfigDigest(cfg), ConfigDigest(n), err
}

// keep leaves a config's shared settings as they are.
func keep(*Common) {}

// runRound normalizes cfg and runs one round.
func runRound[C Family[C, R], R any](t testing.TB, cfg C, round int) Round {
	t.Helper()
	cfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	r, err := cfg.Round(round)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// roundCounts are the counters one instrumented round flushed into the
// metrics registry: the engine's event identity terms, the receivers of
// frames still on the air at round end, and the medium's counters as a
// mac.Stats (IndexRebuilds stays zero).
type roundCounts struct {
	scheduled, processed, cancelled, pending uint64
	inflight                                 uint64
	mac                                      mac.Stats
}

func readRoundCounts() roundCounts {
	c := roundCounts{
		scheduled: mEventsScheduled.Value(),
		processed: mEventsProcessed.Value(),
		cancelled: mEventsCancelled.Value(),
		pending:   mEventsPending.Value(),
		inflight:  mInflightReceivers.Value(),
		mac: mac.Stats{
			Transmissions: mTransmissions.Value(),
			Deliveries:    mDeliveries.Value(),
			Candidates:    mCandidates.Value(),
			Culled:        mCulled.Value(),
			Sensed:        mSensed.Value(),
			IndexQueries:  mIndexQueries.Value(),
			ScanQueries:   mScanQueries.Value(),
			Untraced:      mUntraced.Value(),
		},
	}
	for reason, d := range mDrops {
		if d != nil {
			c.mac.Drops[reason] = d.Value()
		}
	}
	return c
}

func (c roundCounts) minus(o roundCounts) roundCounts {
	c.scheduled -= o.scheduled
	c.processed -= o.processed
	c.cancelled -= o.cancelled
	c.pending -= o.pending
	c.inflight -= o.inflight
	c.mac.Transmissions -= o.mac.Transmissions
	c.mac.Deliveries -= o.mac.Deliveries
	c.mac.Candidates -= o.mac.Candidates
	c.mac.Culled -= o.mac.Culled
	c.mac.Sensed -= o.mac.Sensed
	c.mac.IndexQueries -= o.mac.IndexQueries
	c.mac.ScanQueries -= o.mac.ScanQueries
	c.mac.Untraced -= o.mac.Untraced
	for i := range c.mac.Drops {
		c.mac.Drops[i] -= o.mac.Drops[i]
	}
	return c
}

// countedRound runs one round of f with the metrics registry enabled and
// returns its trace with the counters that round flushed. Every counted
// round must satisfy the receiver accounting identity: each station
// inside a frame's reception horizon is delivered the frame, drops it for
// a named cause, is culled at stage zero, only senses it (a deaf
// station), or is still waiting for it when the round ends.
func countedRound(t *testing.T, f familyCase, with func(*Common), round int) (*trace.Collector, roundCounts) {
	t.Helper()
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	before := readRoundCounts()
	col := f.run(t, with, round)
	c := readRoundCounts().minus(before)
	m := c.mac
	if m.Candidates == 0 || m.Candidates != m.Deliveries+dropped(m)+m.Culled+m.Sensed+c.inflight {
		t.Fatalf("%s: candidates %d != deliveries %d + drops %d + culled %d + sensed %d + in flight %d",
			f.name, m.Candidates, m.Deliveries, dropped(m), m.Culled, m.Sensed, c.inflight)
	}
	return col, c
}

// dropped sums a medium's drops over every cause.
func dropped(s mac.Stats) uint64 {
	var n uint64
	for _, d := range s.Drops {
		n += d
	}
	return n
}
