package scenario

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// CityScaleConfig parameterises the city-scale scenario: a large
// signalized street grid (kilometres across, far wider than the radio
// horizon) where EVERY vehicle carries a radio. A C-ARQ platoon loops a
// large circuit served by Infostations at the circuit's corners, while
// hundreds of background vehicles beacon HELLOs — the dense-VANET
// workload the spatially-indexed medium exists for.
type CityScaleConfig struct {
	Common
	CityGrid
	Rounds int
	// Background is the number of beacon-only vehicles sharing the grid;
	// every one is a MAC station.
	Background int
}

// DefaultCityScale returns a 16x16-intersection city (3 km on a side)
// with a 10-car platoon among 290 beaconing background vehicles and 4
// corner Infostations — 304 stations in total.
func DefaultCityScale() CityScaleConfig {
	return CityScaleConfig{
		Common: Common{
			Cars:             10,
			Seed:             1,
			PacketsPerSecond: 5,
			PayloadBytes:     1000,
			Coop:             true,
		},
		CityGrid: CityGrid{
			GridRows: 16,
			GridCols: 16,
			BlockM:   200,
			Duration: 160 * time.Second,
		},
		Rounds:     4,
		Background: 290,
	}
}

// Normalized validates the config and returns it unchanged.
func (cfg CityScaleConfig) Normalized() (CityScaleConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.Background < 0 {
		return cfg, fmt.Errorf("scenario: background %d", cfg.Background)
	}
	return cfg, cfg.CityGrid.validate(cfg.Common)
}

// CityScaleResult is the study output: per-round protocol traces and
// the summaries of the traffic streams behind them.
type CityScaleResult struct {
	Config  CityScaleConfig
	CarIDs  []packet.NodeID
	Rounds  []*trace.Collector
	Traffic []TrafficSummary
}

// Stations returns the total MAC station count of a round.
func (r *CityScaleResult) Stations() int {
	return len(r.CarIDs) + r.Config.Background + cityAPs
}

// cityScaleWorld builds the round's road network and vehicle population:
// the platoon (vehicle IDs 0..Cars-1) on the circuit, then the
// background population spread over every other link with random-turn
// routes.
func cityScaleWorld(cfg CityScaleConfig, roundSeed int64) (*traffic.GridNet, []traffic.VehicleSpec, error) {
	g, err := gridNetwork(cityGridSpec(cfg.GridRows, cfg.GridCols, cfg.BlockM))
	if err != nil {
		return nil, nil, err
	}
	loR, loC, hiR, hiC := gridCircuit(cfg.GridRows, cfg.GridCols)
	route, err := cityRoute(g, loR, loC, hiR, hiC)
	if err != nil {
		return nil, nil, err
	}

	rng := sim.Stream(roundSeed, "city-drivers")
	specs := cityPlatoonSpecs(route, cfg.Cars, rng)
	background, err := gridBackground(g, route[0], cfg.Background, []float64{15, 60, 105, 150}, rng)
	if err != nil {
		return nil, nil, err
	}
	return g, append(specs, background...), nil
}

// Name implements Family.
func (CityScaleConfig) Name() string { return "cityscale" }

// NumRounds implements Family.
func (cfg CityScaleConfig) NumRounds() int { return cfg.Rounds }

// Result implements Family.
func (cfg CityScaleConfig) Result(rounds []Round) *CityScaleResult {
	return &CityScaleResult{
		Config:  cfg,
		CarIDs:  CarIDs(cfg.Cars),
		Rounds:  protocols(rounds),
		Traffic: summaries(rounds),
	}
}

// CityScaleRound normalizes cfg and runs one round, returning the
// protocol trace and the traffic stream behind it.
func CityScaleRound(cfg CityScaleConfig, round int) (*trace.Collector, *trace.Collector, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, err
	}
	r, stream, err := cfg.round(round)
	return r.Protocol, stream, err
}

// Round implements Family: the protocol trace and the summary of the
// traffic stream behind it.
func (cfg CityScaleConfig) Round(round int) (Round, error) {
	r, _, err := cfg.round(round)
	return r, err
}

// round runs one round, returning it and its traffic stream.
func (cfg CityScaleConfig) round(round int) (Round, *trace.Collector, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("city-round-%d", round))
	g, specs, err := cityScaleWorld(cfg, roundSeed)
	if err != nil {
		return Round{}, nil, err
	}
	return cfg.CityGrid.round(cfg.Common, roundSeed, g, specs)
}

// CityScaleMobilityModels builds (through the shared traffic-trace cache)
// the round's replayed mobility models for every vehicle — platoon first,
// then background — plus the AP positions. Benchmarks drive the raw MAC
// medium with them to measure the delivery path against a realistic
// city-scale population without the protocol stack on top.
func CityScaleMobilityModels(cfg CityScaleConfig, round int) ([]mobility.Model, []geom.Point, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, err
	}
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("city-round-%d", round))
	g, specs, err := cityScaleWorld(cfg, roundSeed)
	if err != nil {
		return nil, nil, err
	}
	tcfg := traffic.Config{Network: g.Network, Seed: roundSeed}
	models, _, err := trafficModels(g.Network, tcfg, specs, cfg.Duration, len(specs))
	if err != nil {
		return nil, nil, err
	}
	return models, gridAPs(g), nil
}
