package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
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
	Rounds int
	// GridRows x GridCols intersections, BlockM apart.
	GridRows, GridCols int
	BlockM             float64
	// APs is the Infostation count (each runs the synchronised carousel
	// at PacketsPerSecond per flow): 4 at the platoon circuit's corners,
	// up to 8 adding the side midpoints.
	APs int
	// DemandScale multiplies every OD flow's rate — the sweep knob that
	// moves the whole city from fluid to saturated. Zero is honoured as
	// an empty-city baseline (no background demand at all), mirroring
	// cityscale's Background semantics; DefaultCityDemand sets 1.
	DemandScale float64
	// Actuated switches every intersection to queue-actuated signal
	// control (stop-line occupancy extends green up to a max, gap-out
	// otherwise); false keeps the fixed cycles.
	Actuated bool
	// HelloPeriod is the demand vehicles' beacon period (every injected
	// vehicle carries a radio, like the city-scale background).
	HelloPeriod time.Duration
	Modulation  radio.Modulation
	// Duration is the simulated time per round; it is also the demand
	// horizon vehicles are injected over.
	Duration time.Duration
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
		Rounds:      4,
		GridRows:    12,
		GridCols:    12,
		BlockM:      200,
		APs:         4,
		DemandScale: 1,
		Actuated:    true,
		HelloPeriod: time.Second,
		Modulation:  radio.DSSS1Mbps,
		Duration:    160 * time.Second,
	}
}

// Normalized validates the config and fills in defaults.
func (cfg CityDemandConfig) Normalized() (CityDemandConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.GridRows == 0 {
		cfg.GridRows = 12
	}
	if cfg.GridCols == 0 {
		cfg.GridCols = 12
	}
	if cfg.GridRows < 4 || cfg.GridCols < 4 {
		return cfg, fmt.Errorf("scenario: grid %dx%d too small for the AP circuit", cfg.GridRows, cfg.GridCols)
	}
	if cfg.BlockM == 0 {
		cfg.BlockM = 200
	}
	if cfg.DemandScale < 0 {
		return cfg, fmt.Errorf("scenario: demand scale %g", cfg.DemandScale)
	}
	if cfg.APs == 0 {
		cfg.APs = 4
	}
	if cfg.APs < 4 || cfg.APs > 8 {
		return cfg, fmt.Errorf("scenario: %d APs (want 4..8: circuit corners plus side midpoints)", cfg.APs)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 160 * time.Second
	}
	if cfg.PacketsPerSecond <= 0 {
		cfg.PacketsPerSecond = 5
	}
	if cfg.PayloadBytes <= 0 {
		cfg.PayloadBytes = 1000
	}
	if cfg.HelloPeriod <= 0 {
		cfg.HelloPeriod = time.Second
	}
	if cfg.Modulation.BitRate == 0 {
		cfg.Modulation = radio.DSSS1Mbps
	}
	if maxLead := platoonLeadArc(cfg.Cars); maxLead > cfg.BlockM-10 {
		return cfg, fmt.Errorf("scenario: %d platoon cars do not fit a %v m block", cfg.Cars, cfg.BlockM)
	}
	return cfg, nil
}

// CityDemandResult is the study output. Demand realisations differ per
// round (each round draws its own Poisson arrivals), so the per-round
// vehicle counts ride along with the traces.
type CityDemandResult struct {
	Config CityDemandConfig
	CarIDs []packet.NodeID
	// Rounds are the protocol traces; Traffic the recorded vehicle
	// streams behind them; Vehicles the demand-vehicle count of each
	// round (stations beyond the platoon and APs).
	Rounds   []*trace.Collector
	Traffic  []*trace.Collector
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
	gspec := traffic.GridSpec{
		Rows: cfg.GridRows, Cols: cfg.GridCols,
		BlockM:        cfg.BlockM,
		Lanes:         2,
		LaneWidthM:    3.2,
		SpeedLimitMPS: 14,
		Green:         24 * time.Second,
		AllRed:        4 * time.Second,
	}
	if cfg.Actuated {
		ap := traffic.DefaultActuatedParams()
		gspec.Actuated = &ap
	}
	g, err := traffic.NewGridNetwork(gspec)
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
		Traffic:  streams(rounds),
		Vehicles: make([]int, len(rounds)),
	}
	for i, r := range rounds {
		res.Vehicles[i] = r.Vehicles
	}
	return res
}

// CityDemandRound normalizes cfg and runs one round, returning the
// protocol trace, the traffic stream behind it, and the round's
// demand-vehicle count.
func CityDemandRound(cfg CityDemandConfig, round int) (*trace.Collector, *trace.Collector, int, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, 0, err
	}
	r, err := cfg.Round(round)
	return r.Protocol, r.Traffic, r.Vehicles, err
}

// Round implements Family: the protocol trace, the traffic stream behind
// it and the demand-vehicle count. Every stream — including the Poisson
// arrival processes — derives from the root seed and round index alone.
func (cfg CityDemandConfig) Round(round int) (Round, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("citydemand-round-%d", round))
	g, specs, err := cityDemandWorld(cfg, roundSeed)
	if err != nil {
		return Round{}, err
	}
	tcfg := traffic.Config{Network: g.Network, Seed: roundSeed}
	carIDs := CarIDs(cfg.Cars)
	demandVehicles := len(specs) - cfg.Cars

	// Every vehicle needs a mobility model: the platoon cars run C-ARQ,
	// the demand population beacons.
	models, trafficStream, err := trafficModels(g.Network, tcfg, specs, cfg.Duration, len(specs))
	if err != nil {
		return Round{}, err
	}

	macCfg := mac.DefaultConfig()
	macCfg.Modulation = cfg.Modulation

	cars := make([]CarSpec, cfg.Cars)
	for i, id := range carIDs {
		cars[i] = CarSpec{ID: id, Mobility: models[i], Carq: cfg.carqConfig(id)}
	}
	beacons := make([]BeaconSpec, demandVehicles)
	for i := range beacons {
		// Radio-silent until the vehicle's arrival instant: the
		// pre-entry population parked at the network edges must not
		// radiate (vehicles that reached their destination keep
		// beaconing, as parked cars do). Entry can slip past EnterAt
		// under spillback, but only by the queue-clearing delay.
		beacons[i] = BeaconSpec{
			ID: BackgroundID + packet.NodeID(i), Mobility: models[cfg.Cars+i],
			Period: cfg.HelloPeriod, StartAt: specs[cfg.Cars+i].EnterAt,
		}
	}

	aps := make([]APSpec, cfg.APs)
	for i, pos := range gridAPs(g, cfg.APs) {
		// Synchronised carousel, as in the city-scale scenario.
		aps[i] = APSpec{
			Position: pos,
			Config: apConfigWindow(APID+packet.NodeID(i), carIDs, cfg.PacketsPerSecond,
				cfg.PayloadBytes, 1, time.Millisecond, 0),
		}
	}

	result, err := cfg.run(roundSeed, Setup{
		Channel:  cityScaleChannel(),
		MAC:      macCfg,
		APs:      aps,
		Cars:     cars,
		Beacons:  beacons,
		Duration: cfg.Duration,
	})
	if err != nil {
		return Round{}, err
	}
	return Round{Protocol: result.Trace, Traffic: trafficStream, Vehicles: demandVehicles}, nil
}
