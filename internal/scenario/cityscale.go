package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// BackgroundID is the station ID of the first beacon-only background
// vehicle in the city-scale scenario (additional vehicles count up).
const BackgroundID packet.NodeID = 200

// CityScaleConfig parameterises the city-scale scenario: a large
// signalized street grid (kilometres across, far wider than the radio
// horizon) where EVERY vehicle carries a radio. A C-ARQ platoon loops a
// large circuit served by Infostations at the circuit's corners, while
// hundreds of background vehicles beacon HELLOs — the dense-VANET
// workload the spatially-indexed medium exists for.
type CityScaleConfig struct {
	Common
	Rounds int
	// Background is the number of beacon-only vehicles sharing the grid;
	// every one is a MAC station.
	Background int
	// GridRows x GridCols intersections, BlockM apart.
	GridRows, GridCols int
	BlockM             float64
	// APs is the Infostation count (each runs the synchronised carousel
	// at PacketsPerSecond per flow): 4 at the platoon circuit's corners,
	// up to 8 adding the side midpoints.
	APs int
	// HelloPeriod is the background vehicles' beacon period.
	HelloPeriod time.Duration
	Modulation  radio.Modulation
	// Duration is the simulated time per round.
	Duration time.Duration
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
		Rounds:      4,
		Background:  290,
		GridRows:    16,
		GridCols:    16,
		BlockM:      200,
		APs:         4,
		HelloPeriod: time.Second,
		Modulation:  radio.DSSS1Mbps,
		Duration:    160 * time.Second,
	}
}

// Normalized validates the config and fills in defaults.
func (cfg CityScaleConfig) Normalized() (CityScaleConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.GridRows == 0 {
		cfg.GridRows = 16
	}
	if cfg.GridCols == 0 {
		cfg.GridCols = 16
	}
	if cfg.GridRows < 4 || cfg.GridCols < 4 {
		return cfg, fmt.Errorf("scenario: grid %dx%d too small for the AP circuit", cfg.GridRows, cfg.GridCols)
	}
	if cfg.BlockM == 0 {
		cfg.BlockM = 200
	}
	if cfg.Background < 0 {
		return cfg, fmt.Errorf("scenario: background %d", cfg.Background)
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

// CityScaleResult is the study output.
type CityScaleResult struct {
	Config  CityScaleConfig
	CarIDs  []packet.NodeID
	Rounds  []*trace.Collector
	Traffic []*trace.Collector
}

// Stations returns the total MAC station count of a round.
func (r *CityScaleResult) Stations() int {
	return len(r.CarIDs) + r.Config.Background + r.Config.APs
}

// gridCircuit returns the platoon circuit's corner intersections on a
// rows x cols grid: a rectangle inset a quarter of the grid from each
// edge. Shared by every city-family scenario (cityscale, citydemand).
func gridCircuit(rows, cols int) (loR, loC, hiR, hiC int) {
	loR, loC = rows/4, cols/4
	hiR, hiC = rows-1-loR, cols-1-loC
	return
}

// cityRoute builds the clockwise link route around the circuit.
func cityRoute(g *traffic.GridNet, loR, loC, hiR, hiC int) ([]traffic.LinkID, error) {
	var hops [][4]int
	for c := loC; c < hiC; c++ {
		hops = append(hops, [4]int{loR, c, loR, c + 1})
	}
	for r := loR; r < hiR; r++ {
		hops = append(hops, [4]int{r, hiC, r + 1, hiC})
	}
	for c := hiC; c > loC; c-- {
		hops = append(hops, [4]int{hiR, c, hiR, c - 1})
	}
	for r := hiR; r > loR; r-- {
		hops = append(hops, [4]int{r, loC, r - 1, loC})
	}
	route := make([]traffic.LinkID, 0, len(hops))
	for _, hop := range hops {
		id, ok := g.LinkBetween(hop[0], hop[1], hop[2], hop[3])
		if !ok {
			return nil, fmt.Errorf("scenario: city grid misses hop %v", hop)
		}
		route = append(route, id)
	}
	return route, nil
}

// gridAPs places the Infostations on the platoon circuit: the four
// circuit corners, then side midpoints for APs beyond four, each offset
// into the street corner like a pole-mounted unit.
func gridAPs(g *traffic.GridNet, aps int) []geom.Point {
	loR, loC, hiR, hiC := gridCircuit(g.Spec.Rows, g.Spec.Cols)
	midR, midC := (loR+hiR)/2, (loC+hiC)/2
	nodes := [][2]int{
		{loR, loC}, {loR, hiC}, {hiR, hiC}, {hiR, loC}, // corners
		{loR, midC}, {midR, hiC}, {hiR, midC}, {midR, loC}, // side midpoints
	}
	pts := make([]geom.Point, aps)
	for i := range pts {
		p := g.NodePoint(nodes[i][0], nodes[i][1])
		pts[i] = geom.Point{X: p.X + 8, Y: p.Y + 8}
	}
	return pts
}

// cityPlatoonSpecs builds the circuit platoon's vehicle specs shared by
// the city-family scenarios (cityscale, citydemand): a jittered urban
// driver profile with tight uniform headways, the whole column fitting
// the route's start link. Draws exactly cars jitter triples from rng, in
// platoon order.
func cityPlatoonSpecs(route []traffic.LinkID, cars int, rng *rand.Rand) []traffic.VehicleSpec {
	base := traffic.DefaultDriver()
	base.DesiredSpeedMPS = 13
	specs := make([]traffic.VehicleSpec, 0, cars)
	for i := 0; i < cars; i++ {
		drv := jitterDriver(base, rng)
		drv.TimeHeadwayS = base.TimeHeadwayS // the platoon keeps tight, uniform headways
		specs = append(specs, traffic.VehicleSpec{
			Driver:   drv,
			Link:     route[0],
			Lane:     0,
			ArcM:     platoonLeadArc(cars) - 14*float64(i),
			SpeedMPS: 8,
			Route:    route,
		})
	}
	return specs
}

// cityScaleChannel is the deep-urban calibration: strong aggregate
// clutter (exponent 4.2, modest transmit power) shrinks the reception
// horizon to a few hundred metres — a small fraction of the city — which
// is exactly the regime where spatially-indexed delivery pays.
func cityScaleChannel() radio.Config {
	return radio.Config{
		PathLoss:           radio.LogDistance{FreqHz: 2.4e9, RefDist: 1, Exponent: 4.2},
		TxPowerDBm:         15,
		NoiseFloorDBm:      -92,
		ShadowSigmaDB:      3,
		ShadowTau:          800 * time.Millisecond,
		FadingK:            2,
		CaptureThresholdDB: 10,
	}
}

// cityScaleWorld builds the round's road network and vehicle population:
// the platoon (vehicle IDs 0..Cars-1) on the circuit, then the
// background population spread over every other link with random-turn
// routes.
func cityScaleWorld(cfg CityScaleConfig, roundSeed int64) (*traffic.GridNet, []traffic.VehicleSpec, error) {
	g, err := traffic.NewGridNetwork(traffic.GridSpec{
		Rows: cfg.GridRows, Cols: cfg.GridCols,
		BlockM:        cfg.BlockM,
		Lanes:         2,
		LaneWidthM:    3.2,
		SpeedLimitMPS: 14,
		Green:         24 * time.Second,
		AllRed:        4 * time.Second,
	})
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

	// Background vehicles spread deterministically over every link except
	// the platoon's start link, random turns at intersections.
	var candidates []traffic.LinkID
	for _, l := range g.Links {
		if l.ID != route[0] {
			candidates = append(candidates, l.ID)
		}
	}
	slotArcs := []float64{15, 60, 105, 150}
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
		Traffic: streams(rounds),
	}
}

// CityScaleRound normalizes cfg and runs one round, returning the
// protocol trace and the traffic stream behind it.
func CityScaleRound(cfg CityScaleConfig, round int) (*trace.Collector, *trace.Collector, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, err
	}
	r, err := cfg.Round(round)
	return r.Protocol, r.Traffic, err
}

// Round implements Family: the protocol trace and the traffic stream
// behind it.
func (cfg CityScaleConfig) Round(round int) (Round, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("city-round-%d", round))
	g, specs, err := cityScaleWorld(cfg, roundSeed)
	if err != nil {
		return Round{}, err
	}
	tcfg := traffic.Config{Network: g.Network, Seed: roundSeed}
	carIDs := CarIDs(cfg.Cars)

	// Every vehicle needs a mobility model: the platoon cars run C-ARQ,
	// the rest beacon.
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
	beacons := make([]BeaconSpec, cfg.Background)
	for i := range beacons {
		beacons[i] = BeaconSpec{
			ID: BackgroundID + packet.NodeID(i), Mobility: models[cfg.Cars+i], Period: cfg.HelloPeriod,
		}
	}

	aps := make([]APSpec, cfg.APs)
	for i, pos := range gridAPs(g, cfg.APs) {
		// Synchronised carousel, as in the corridor: every Infostation
		// transmits the same numbered stream on the same schedule.
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
	return Round{Protocol: result.Trace, Traffic: trafficStream}, nil
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
	return models, gridAPs(g, cfg.APs), nil
}
