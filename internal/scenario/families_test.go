package scenario

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// familyCase is one row of the scenario-family table the cross-family
// suites loop over: every family behind the study catalogue at a small
// configuration that still runs the study's channel and geometry paths.
type familyCase struct {
	name string
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
		config: func(with func(*Common)) any { return config(with) },
		run: func(t *testing.T, with func(*Common), round int) *trace.Collector {
			return runRound(t, config(with), round).Protocol
		},
	}
}

// families is the cross-family table, in study-catalogue order. The
// download scenario has no round axis, so its rows vary the seed with
// the round index instead.
func families() []familyCase {
	testbed := DefaultTestbed()
	testbed.Rounds = 1
	highway := DefaultHighway()
	highway.Rounds = 1
	corridor := DefaultCorridor()
	corridor.Rounds = 1
	twoway := DefaultTwoWay()
	twoway.Rounds = 1
	download := func(with func(*Common), round int) DownloadConfig {
		cfg := DefaultDownload()
		cfg.FileBlocks = 40
		cfg.MaxLaps = 2
		cfg.Seed = int64(round + 1)
		with(&cfg.Common)
		return cfg
	}
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
		{
			name:   "download",
			config: func(with func(*Common)) any { return download(with, 0) },
			run: func(t *testing.T, with func(*Common), round int) *trace.Collector {
				res, err := RunDownload(download(with, round))
				if err != nil {
					t.Fatal(err)
				}
				return res.Trace
			},
		},
		family(grid),
		family(stopgo),
		family(demand),
		family(city),
	}
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
