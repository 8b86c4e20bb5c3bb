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
	Modulation         radio.Modulation
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
		Modulation: radio.DSSS1Mbps,
		Duration:   150 * time.Second,
	}
}

// Normalized validates the config and fills in defaults.
func (cfg TrafficGridConfig) Normalized() (TrafficGridConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.GridRows == 0 {
		cfg.GridRows = 3
	}
	if cfg.GridCols == 0 {
		cfg.GridCols = 3
	}
	if cfg.GridRows < 2 || cfg.GridCols < 2 {
		return cfg, fmt.Errorf("scenario: grid %dx%d too small", cfg.GridRows, cfg.GridCols)
	}
	if cfg.BlockM == 0 {
		cfg.BlockM = 120
	}
	if cfg.Background < 0 {
		return cfg, fmt.Errorf("scenario: background %d", cfg.Background)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 150 * time.Second
	}
	if cfg.PacketsPerSecond <= 0 {
		cfg.PacketsPerSecond = 5
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 1000
	}
	if cfg.Modulation.BitRate == 0 {
		cfg.Modulation = radio.DSSS1Mbps
	}
	if maxLead := platoonLeadArc(cfg.Cars); maxLead > cfg.BlockM-10 {
		return cfg, fmt.Errorf("scenario: %d platoon cars do not fit a %v m block", cfg.Cars, cfg.BlockM)
	}
	return cfg, nil
}

// TrafficGridResult is the study output: per-round protocol traces plus
// the traffic streams that produced them.
type TrafficGridResult struct {
	Config  TrafficGridConfig
	CarIDs  []packet.NodeID
	Rounds  []*trace.Collector
	Traffic []*trace.Collector
}

// platoonLeadArc places the platoon head so the whole column fits on its
// start link with 14 m spacings.
func platoonLeadArc(cars int) float64 { return 10 + 14*float64(cars-1) }

// trafficGridWorld builds the round's road network and vehicle
// population: the platoon (vehicle IDs 0..Cars-1, looping the block at
// the AP intersection clockwise) followed by the background population
// on every other street.
func trafficGridWorld(cfg TrafficGridConfig, roundSeed int64) (*traffic.GridNet, []traffic.VehicleSpec, error) {
	spec := traffic.GridSpec{
		Rows: cfg.GridRows, Cols: cfg.GridCols,
		BlockM:        cfg.BlockM,
		Lanes:         2,
		LaneWidthM:    3.2,
		SpeedLimitMPS: 14,
		Green:         24 * time.Second,
		AllRed:        4 * time.Second,
	}
	g, err := traffic.NewGridNetwork(spec)
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
	base := traffic.DefaultDriver()
	base.DesiredSpeedMPS = 13

	var specs []traffic.VehicleSpec
	for i := 0; i < cfg.Cars; i++ {
		drv := jitterDriver(base, rng)
		drv.TimeHeadwayS = base.TimeHeadwayS // the platoon keeps tight, uniform headways
		specs = append(specs, traffic.VehicleSpec{
			Driver:   drv,
			Link:     route[0],
			Lane:     0,
			ArcM:     platoonLeadArc(cfg.Cars) - 14*float64(i),
			SpeedMPS: 8,
			Route:    route,
		})
	}

	// Background vehicles cycle deterministically over every link except
	// the platoon's start link, four slots per lane per link.
	var candidates []traffic.LinkID
	for _, l := range g.Links {
		if l.ID != route[0] {
			candidates = append(candidates, l.ID)
		}
	}
	slotArcs := []float64{12, 38, 64, 90}
	capacity := len(candidates) * len(slotArcs) * 2
	if cfg.Background > capacity {
		return nil, nil, fmt.Errorf("scenario: %d background vehicles exceed capacity %d", cfg.Background, capacity)
	}
	for i := 0; i < cfg.Background; i++ {
		linkIdx := i % len(candidates)
		slot := i / len(candidates)
		lane := slot % 2
		arc := slotArcs[(slot/2)%len(slotArcs)]
		l := g.Links[candidates[linkIdx]]
		if arc >= l.Length()-5 {
			arc = l.Length() - 5
		}
		specs = append(specs, traffic.VehicleSpec{
			Driver:   jitterDriver(traffic.DefaultDriver(), rng),
			Link:     candidates[linkIdx],
			Lane:     lane,
			ArcM:     arc,
			SpeedMPS: 6,
		})
	}
	return g, specs, nil
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
		PathLoss:      radio.LogDistance{FreqHz: 2.4e9, RefDist: 1, Exponent: 3.8},
		TxPowerDBm:    17,
		NoiseFloorDBm: -94,
		ShadowSigmaDB: 5.5,
		ShadowTau:     800 * time.Millisecond,
		FadingK:       1,
		ObstructionDB: func(a, b geom.Point) float64 {
			loss := 0.0
			for _, bld := range buildings {
				if bld.SegmentIntersects(a, b) {
					loss += 35
				}
			}
			return loss
		},
		CaptureThresholdDB: 10,
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
		Traffic: streams(rounds),
	}
}

// Round implements Family: the protocol trace and the traffic stream
// behind it.
func (cfg TrafficGridConfig) Round(round int) (Round, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("tgrid-round-%d", round))
	g, specs, err := trafficGridWorld(cfg, roundSeed)
	if err != nil {
		return Round{}, err
	}
	tcfg := traffic.Config{Network: g.Network, Seed: roundSeed}
	carIDs := CarIDs(cfg.Cars)

	models, trafficStream, err := trafficModels(g.Network, tcfg, specs, cfg.Duration, cfg.Cars)
	if err != nil {
		return Round{}, err
	}

	macCfg := mac.DefaultConfig()
	macCfg.Modulation = cfg.Modulation

	cars := make([]CarSpec, cfg.Cars)
	for i, id := range carIDs {
		cars[i] = CarSpec{ID: id, Mobility: models[i], Carq: cfg.carqConfig(id)}
	}

	result, err := cfg.run(roundSeed, Setup{
		Channel: trafficGridChannel(g),
		MAC:     macCfg,
		APs: []APSpec{{
			Position: trafficGridAP(g),
			Config: apConfigWindow(APID, carIDs, cfg.PacketsPerSecond,
				cfg.PayloadBytes, 1, 0, 0),
		}},
		Cars:     cars,
		Duration: cfg.Duration,
	})
	if err != nil {
		return Round{}, err
	}
	return Round{Protocol: result.Trace, Traffic: trafficStream}, nil
}
