package scenario

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TrafficGridConfig parameterises the signalized urban-grid scenario: a
// Manhattan grid of two-lane streets with fixed-cycle lights, a platoon
// of C-ARQ cars looping the block at the AP's intersection, and a
// population of radio-silent background vehicles that congest the same
// streets. Red lights compress the platoon bumper-to-bumper — the
// generalisation of the paper's corner-C bunching anomaly — and the dark
// sides of the block exercise the Cooperative-ARQ phase every lap.
type TrafficGridConfig struct {
	Common
	Rounds int
	// Background is the number of radio-silent vehicles sharing the
	// grid.
	Background int
	// GridRows x GridCols intersections, BlockM apart.
	GridRows, GridCols int
	BlockM             float64
	// Duration is the simulated time per round.
	Duration time.Duration
}

// DefaultTrafficGrid returns a 3x3-intersection grid with a 4-car
// platoon among 60 background vehicles.
func DefaultTrafficGrid() TrafficGridConfig {
	return TrafficGridConfig{
		Common: Common{
			Cars:             4,
			Seed:             1,
			PacketsPerSecond: 5,
			PayloadBytes:     1000,
			Coop:             true,
		},
		Rounds:     10,
		Background: 60,
		GridRows:   3,
		GridCols:   3,
		BlockM:     120,
		Duration:   150 * time.Second,
	}
}

// Normalized validates the config and returns it unchanged.
func (cfg TrafficGridConfig) Normalized() (TrafficGridConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.GridRows < 2 || cfg.GridCols < 2 {
		return cfg, fmt.Errorf("scenario: grid %dx%d too small", cfg.GridRows, cfg.GridCols)
	}
	if cfg.Background < 0 {
		return cfg, fmt.Errorf("scenario: background %d", cfg.Background)
	}
	if cfg.Duration <= 0 {
		return cfg, fmt.Errorf("scenario: duration %v", cfg.Duration)
	}
	if maxLead := platoonLeadArc(cfg.Cars); maxLead > cfg.BlockM-10 {
		return cfg, fmt.Errorf("scenario: %d platoon cars do not fit a %v m block", cfg.Cars, cfg.BlockM)
	}
	return cfg, nil
}

// TrafficGridResult is the study output: per-round protocol traces plus
// the summaries of the traffic worlds that produced them.
type TrafficGridResult struct {
	Config  TrafficGridConfig
	CarIDs  []packet.NodeID
	Rounds  []*trace.Collector
	Traffic []TrafficSummary
}

// trafficGridWorld builds the round's road network and vehicle
// population: the platoon (vehicle IDs 0..Cars-1, looping the block at
// the AP intersection clockwise) followed by the background population
// on every other street.
func trafficGridWorld(cfg TrafficGridConfig, roundSeed int64) (*traffic.GridNet, []traffic.VehicleSpec, error) {
	g, err := gridNetwork(cityGridSpec(cfg.GridRows, cfg.GridCols, cfg.BlockM))
	if err != nil {
		return nil, nil, err
	}
	// The platoon loops the south-west block clockwise, passing the AP
	// intersection (1,1) on every lap.
	var route []traffic.LinkID
	for _, hop := range [][4]int{{0, 0, 0, 1}, {0, 1, 1, 1}, {1, 1, 1, 0}, {1, 0, 0, 0}} {
		id, ok := g.LinkBetween(hop[0], hop[1], hop[2], hop[3])
		if !ok {
			return nil, nil, fmt.Errorf("scenario: grid misses hop %v", hop)
		}
		route = append(route, id)
	}

	rng := sim.Stream(roundSeed, "tgrid-drivers")
	specs := cityPlatoonSpecs(route, cfg.Cars, rng)
	// Background vehicles, four slots per lane per link.
	background, err := gridBackground(g, route[0], cfg.Background, []float64{12, 38, 64, 90}, rng)
	if err != nil {
		return nil, nil, err
	}
	return g, append(specs, background...), nil
}

// trafficGridAP returns the AP antenna position: the platoon-loop
// intersection, offset into the north-east street corner like a
// pole-mounted unit.
func trafficGridAP(g *traffic.GridNet) geom.Point {
	p := g.NodePoint(1, 1)
	return geom.Point{X: p.X + 8, Y: p.Y + 8}
}

// trafficGridChannel is the urban calibration: street-canyon path loss
// with every city block's building obstructing cross-block propagation,
// so AP coverage follows the streets around its intersection and the far
// side of the platoon's block is dark.
func trafficGridChannel(g *traffic.GridNet) radio.Config {
	var buildings []geom.Rect
	for r := 0; r+1 < g.Spec.Rows; r++ {
		for c := 0; c+1 < g.Spec.Cols; c++ {
			buildings = append(buildings, g.BlockRect(r, c, 10))
		}
	}
	return radio.Config{
		PathLossExponent: 3.8,
		TxPowerDBm:       17,
		NoiseFloorDBm:    -94,
		ShadowSigmaDB:    5.5,
		ShadowTau:        800 * time.Millisecond,
		FadingK:          1,
		ObstructionDB: func(a, b geom.Point) float64 {
			loss := 0.0
			for _, bld := range buildings {
				if bld.SegmentIntersects(a, b) {
					loss += 35
				}
			}
			return loss
		},
	}
}

// Name implements Family.
func (TrafficGridConfig) Name() string { return "trafficgrid" }

// NumRounds implements Family.
func (cfg TrafficGridConfig) NumRounds() int { return cfg.Rounds }

// Result implements Family.
func (cfg TrafficGridConfig) Result(rounds []Round) *TrafficGridResult {
	return &TrafficGridResult{
		Config:  cfg,
		CarIDs:  CarIDs(cfg.Cars),
		Rounds:  protocols(rounds),
		Traffic: summaries(rounds),
	}
}

// Round implements Family: the protocol trace and the summary of the
// traffic world behind it.
func (cfg TrafficGridConfig) Round(round int) (Round, error) {
	r, _, err := cfg.round(round)
	return r, err
}

// round runs one round, returning it and its traffic world.
func (cfg TrafficGridConfig) round(round int) (Round, *traffic.World, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("tgrid-round-%d", round))
	g, specs, err := trafficGridWorld(cfg, roundSeed)
	if err != nil {
		return Round{}, nil, err
	}
	tcfg := traffic.Config{Network: g.Network, Seed: roundSeed}
	models, world, err := trafficModels(tcfg, specs, cfg.Duration, cfg.Cars)
	if err != nil {
		return Round{}, nil, err
	}

	result, err := cfg.run(roundSeed, Setup{
		Channel: trafficGridChannel(g),
		MAC:     mac.DefaultConfig(),
		APs: []APSpec{{
			Position: trafficGridAP(g),
			Config: apConfigWindow(APID, CarIDs(cfg.Cars), cfg.PacketsPerSecond,
				cfg.PayloadBytes, 1, 0, 0),
		}},
		Cars:     cfg.platoon(models),
		Duration: cfg.Duration,
	})
	if err != nil {
		return Round{}, nil, err
	}
	return Round{Protocol: result.Trace, TrafficSummary: TrafficSummary(world.Summary())}, world, nil
}
