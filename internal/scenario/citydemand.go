package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// CityDemandConfig parameterises the demand-driven city scenario (A18):
// the same signalized grid and platoon-circuit C-ARQ deployment as the
// city-scale scenario, but the background population comes from an
// origin–destination demand table — Poisson injection per flow,
// shortest-path routes, exit at the destination — instead of a fixed
// random-turn population, and the lights can run queue-actuated control
// instead of fixed cycles. Demand concentrates on two east-west
// arterials (rush-heavy westbound-to-eastbound) and two north-south
// connectors, so vehicle density forms rush corridors and near-empty
// side streets: who happens to be near the platoon — and therefore the
// cooperative-ARQ candidate set — follows realistic gradients rather
// than statistically flat noise.
type CityDemandConfig struct {
	Common
	// CityGrid's Duration is also the demand horizon vehicles are
	// injected over. Every injected vehicle carries a radio and beacons,
	// like the city-scale background.
	CityGrid
	Rounds int
	// DemandScale multiplies every OD flow's rate — the sweep knob that
	// moves the whole city from fluid to saturated. Zero is honoured as
	// an empty-city baseline (no background demand at all), mirroring
	// cityscale's Background semantics; DefaultCityDemand sets 1.
	DemandScale float64
	// Actuated switches every intersection to queue-actuated signal
	// control (stop-line occupancy extends green up to a max, gap-out
	// otherwise); false keeps the fixed cycles.
	Actuated bool
}

// DefaultCityDemand returns a 12x12-intersection city (2.2 km on a side)
// with a 10-car platoon, four corner Infostations, actuated signals and
// a demand table that injects roughly ninety vehicles over the round.
func DefaultCityDemand() CityDemandConfig {
	return CityDemandConfig{
		Common: Common{
			Cars:             10,
			Seed:             1,
			PacketsPerSecond: 5,
			PayloadBytes:     1000,
			Coop:             true,
		},
		CityGrid: CityGrid{
			GridRows: 12,
			GridCols: 12,
			BlockM:   200,
			Duration: 160 * time.Second,
		},
		Rounds:      4,
		DemandScale: 1,
		Actuated:    true,
	}
}

// Normalized validates the config and returns it unchanged.
func (cfg CityDemandConfig) Normalized() (CityDemandConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.DemandScale < 0 {
		return cfg, fmt.Errorf("scenario: demand scale %g", cfg.DemandScale)
	}
	return cfg, cfg.CityGrid.validate(cfg.Common)
}

// CityDemandResult is the study output. Demand realisations differ per
// round (each round draws its own Poisson arrivals), so the per-round
// vehicle counts ride along with the traces.
type CityDemandResult struct {
	Config CityDemandConfig
	CarIDs []packet.NodeID
	// Rounds are the protocol traces; Traffic the summaries of the
	// recorded traffic worlds behind them; Vehicles the demand-vehicle
	// count of each round (stations beyond the platoon and APs).
	Rounds   []*trace.Collector
	Traffic  []TrafficSummary
	Vehicles []int
}

// cityDemandFlows builds the round's OD table on the grid: two east-west
// arterials (heavy eastbound rush, lighter westbound return) and two
// north-south connectors (balanced), all scaled by DemandScale. Origins
// and destinations sit on the grid edges, so every route crosses the
// platoon circuit's streets.
func cityDemandFlows(g *traffic.GridNet, cfg CityDemandConfig) ([]traffic.DemandFlow, error) {
	if cfg.DemandScale == 0 {
		return nil, nil // empty-city baseline
	}
	rows, cols := cfg.GridRows, cfg.GridCols
	link := func(r1, c1, r2, c2 int) (traffic.LinkID, error) {
		id, ok := g.LinkBetween(r1, c1, r2, c2)
		if !ok {
			return 0, fmt.Errorf("scenario: demand grid misses link (%d,%d)->(%d,%d)", r1, c1, r2, c2)
		}
		return id, nil
	}
	var flows []traffic.DemandFlow
	add := func(origin, dest traffic.LinkID, rateVehPerHour float64) {
		flows = append(flows, traffic.DemandFlow{
			Origin: origin, Dest: dest, RateVehPerHour: rateVehPerHour * cfg.DemandScale,
		})
	}
	for _, r := range []int{rows / 3, 2 * rows / 3} {
		east, err := link(r, 0, r, 1)
		if err != nil {
			return nil, err
		}
		eastEnd, err := link(r, cols-2, r, cols-1)
		if err != nil {
			return nil, err
		}
		west, err := link(r, cols-1, r, cols-2)
		if err != nil {
			return nil, err
		}
		westEnd, err := link(r, 1, r, 0)
		if err != nil {
			return nil, err
		}
		add(east, eastEnd, 480) // rush direction
		add(west, westEnd, 240) // return direction
	}
	for _, c := range []int{cols / 3, 2 * cols / 3} {
		south, err := link(0, c, 1, c)
		if err != nil {
			return nil, err
		}
		southEnd, err := link(rows-2, c, rows-1, c)
		if err != nil {
			return nil, err
		}
		north, err := link(rows-1, c, rows-2, c)
		if err != nil {
			return nil, err
		}
		northEnd, err := link(1, c, 0, c)
		if err != nil {
			return nil, err
		}
		add(south, southEnd, 120)
		add(north, northEnd, 120)
	}
	return flows, nil
}

// cityDemandWorld builds the round's road network and vehicle
// population: the platoon (vehicle IDs 0..Cars-1) on the circuit, then
// the demand-injected population (Poisson arrivals, shortest routes,
// exit at destination).
func cityDemandWorld(cfg CityDemandConfig, roundSeed int64) (*traffic.GridNet, []traffic.VehicleSpec, error) {
	gspec := cityGridSpec(cfg.GridRows, cfg.GridCols, cfg.BlockM)
	if cfg.Actuated {
		ap := traffic.DefaultActuatedParams()
		gspec.Actuated = &ap
	}
	g, err := gridNetwork(gspec)
	if err != nil {
		return nil, nil, err
	}
	loR, loC, hiR, hiC := gridCircuit(cfg.GridRows, cfg.GridCols)
	route, err := cityRoute(g, loR, loC, hiR, hiC)
	if err != nil {
		return nil, nil, err
	}

	rng := sim.Stream(roundSeed, "citydemand-drivers")
	specs := cityPlatoonSpecs(route, cfg.Cars, rng)

	flows, err := cityDemandFlows(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	demand, err := traffic.ExpandDemand(g.Network, flows, cfg.Duration,
		sim.SeedFor(roundSeed, "citydemand-od"),
		func(frng *rand.Rand) traffic.DriverParams {
			return jitterDriver(traffic.DefaultDriver(), frng)
		})
	if err != nil {
		return nil, nil, err
	}
	return g, append(specs, demand...), nil
}

// Name implements Family.
func (CityDemandConfig) Name() string { return "citydemand" }

// NumRounds implements Family.
func (cfg CityDemandConfig) NumRounds() int { return cfg.Rounds }

// Result implements Family.
func (cfg CityDemandConfig) Result(rounds []Round) *CityDemandResult {
	res := &CityDemandResult{
		Config:   cfg,
		CarIDs:   CarIDs(cfg.Cars),
		Rounds:   protocols(rounds),
		Traffic:  summaries(rounds),
		Vehicles: make([]int, len(rounds)),
	}
	for i, r := range rounds {
		res.Vehicles[i] = r.Vehicles
	}
	return res
}

// CityDemandRound normalizes cfg and runs one round, returning the
// protocol trace, the traffic world behind it in its serialized form
// (traffic.World.Trace), and the round's demand-vehicle count.
func CityDemandRound(cfg CityDemandConfig, round int) (*trace.Collector, *trace.Collector, int, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, 0, err
	}
	r, world, err := cfg.round(round, &trace.Collector{})
	if err != nil {
		return nil, nil, 0, err
	}
	return r.Protocol, world.Trace(), r.Vehicles, nil
}

// Round implements Family: the protocol trace, the summary of the
// traffic world behind it and the demand-vehicle count. Every stream —
// including the Poisson arrival processes — derives from the root seed
// and round index alone.
func (cfg CityDemandConfig) Round(round int, col *trace.Collector) (Round, error) {
	r, _, err := cfg.round(round, col)
	return r, err
}

// round runs one round, returning it and its traffic world.
func (cfg CityDemandConfig) round(round int, col *trace.Collector) (Round, *traffic.World, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("citydemand-round-%d", round))
	g, specs, err := cityDemandWorld(cfg, roundSeed)
	if err != nil {
		return Round{}, nil, err
	}
	r, world, err := cfg.CityGrid.round(cfg.Common, col, roundSeed, g, specs)
	if err != nil {
		return Round{}, nil, err
	}
	r.Vehicles = len(specs) - cfg.Cars
	return r, world, nil
}
