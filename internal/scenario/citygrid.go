package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// BackgroundID is the station ID of the first beacon-only background
// vehicle in the city families (additional vehicles count up).
const BackgroundID packet.NodeID = 200

// CityGrid holds the settings the city families (cityscale, citydemand)
// share: the signalized street grid and the round length. Both configs
// embed it, so their validation and round wiring live here once.
type CityGrid struct {
	// GridRows x GridCols intersections, BlockM apart.
	GridRows, GridCols int
	BlockM             float64
	// Duration is the simulated time per round.
	Duration time.Duration
}

// Every vehicle outside a city platoon beacons every cityHelloPeriod, and
// cityAPs Infostations stand at the platoon circuit's corners, each
// running the synchronised carousel at the platoon's PacketsPerSecond
// per flow.
const (
	cityHelloPeriod = time.Second
	cityAPs         = 4
)

// validate checks the grid against c's platoon: the grid must hold the
// AP circuit, and the platoon must fit its start block.
func (cg CityGrid) validate(c Common) error {
	if cg.GridRows < 4 || cg.GridCols < 4 {
		return fmt.Errorf("scenario: grid %dx%d too small for the AP circuit", cg.GridRows, cg.GridCols)
	}
	if cg.Duration <= 0 {
		return fmt.Errorf("scenario: duration %v", cg.Duration)
	}
	if maxLead := platoonLeadArc(c.Cars); maxLead > cg.BlockM-10 {
		return fmt.Errorf("scenario: %d platoon cars do not fit a %v m block", c.Cars, cg.BlockM)
	}
	return nil
}

// round runs one city round over a built world whose first c.Cars specs
// are the platoon: the platoon runs C-ARQ, every later vehicle beacons
// from its entry instant, and the Infostations on the circuit broadcast
// a synchronised carousel — every AP transmits the same numbered stream
// on the same schedule. Every vehicle replays the recorded traffic
// world, which round returns beside the round.
func (cg CityGrid) round(c Common, col *trace.Collector, roundSeed int64, g *traffic.GridNet, specs []traffic.VehicleSpec) (Round, *traffic.World, error) {
	tcfg := traffic.Config{Network: g.Network, Seed: roundSeed}
	models, world, err := trafficModels(tcfg, specs, cg.Duration, len(specs))
	if err != nil {
		return Round{}, nil, err
	}

	beacons := make([]BeaconSpec, len(specs)-c.Cars)
	for i := range beacons {
		// Radio-silent until the vehicle's arrival instant: demand
		// vehicles parked at the network edges before entry must not
		// radiate (vehicles that reached their destination keep
		// beaconing, as parked cars do). Entry can slip past EnterAt
		// under spillback, but only by the queue-clearing delay.
		beacons[i] = BeaconSpec{
			ID: BackgroundID + packet.NodeID(i), Mobility: models[c.Cars+i],
			Period: cityHelloPeriod, StartAt: specs[c.Cars+i].EnterAt,
		}
	}

	carIDs := CarIDs(c.Cars)
	aps := make([]APSpec, cityAPs)
	for i, pos := range gridAPs(g) {
		aps[i] = APSpec{
			Position: pos,
			Config: apConfigWindow(APID+packet.NodeID(i), carIDs, c.PacketsPerSecond,
				c.PayloadBytes, 1, time.Millisecond, 0),
		}
	}

	_, err = c.run(roundSeed, col, Setup{
		Channel:  cityScaleChannel(),
		MAC:      mac.DefaultConfig(),
		APs:      aps,
		Cars:     c.platoon(models[:c.Cars]),
		Beacons:  beacons,
		Duration: cg.Duration,
	})
	if err != nil {
		return Round{}, nil, err
	}
	return Round{Protocol: col, TrafficSummary: TrafficSummary(world.Summary())}, world, nil
}

// cityGridSpec is the street grid every grid family drives: two-lane
// 14 m/s streets under fixed 24 s green, 4 s all-red cycles.
func cityGridSpec(rows, cols int, blockM float64) traffic.GridSpec {
	return traffic.GridSpec{
		Rows: rows, Cols: cols,
		BlockM:        blockM,
		Lanes:         2,
		LaneWidthM:    3.2,
		SpeedLimitMPS: 14,
		Green:         24 * time.Second,
		AllRed:        4 * time.Second,
	}
}

// gridBackground places n background vehicles deterministically over
// every link of g but skip (the platoon's start link), random turns at
// intersections: vehicle i takes link i mod links, and as the links fill
// the vehicles alternate lanes, then step through slotArcs. Draws one
// jittered default driver per vehicle from rng, in vehicle order.
func gridBackground(g *traffic.GridNet, skip traffic.LinkID, n int, slotArcs []float64, rng *rand.Rand) ([]traffic.VehicleSpec, error) {
	var candidates []traffic.LinkID
	for _, l := range g.Links {
		if l.ID != skip {
			candidates = append(candidates, l.ID)
		}
	}
	capacity := len(candidates) * len(slotArcs) * 2
	if n > capacity {
		return nil, fmt.Errorf("scenario: %d background vehicles exceed capacity %d", n, capacity)
	}
	specs := make([]traffic.VehicleSpec, n)
	for i := range specs {
		linkIdx := i % len(candidates)
		slot := i / len(candidates)
		arc := slotArcs[(slot/2)%len(slotArcs)]
		l := g.Links[candidates[linkIdx]]
		if arc >= l.Length()-5 {
			arc = l.Length() - 5
		}
		specs[i] = traffic.VehicleSpec{
			Driver:   jitterDriver(traffic.DefaultDriver(), rng),
			Link:     candidates[linkIdx],
			Lane:     slot % 2,
			ArcM:     arc,
			SpeedMPS: 6,
		}
	}
	return specs, nil
}

// platoonLeadArc places the platoon head so the whole column fits on its
// start link with 14 m spacings.
func platoonLeadArc(cars int) float64 { return 10 + 14*float64(cars-1) }

// cityPlatoonSpecs builds the looping platoon's vehicle specs shared by
// the grid families: a jittered urban driver profile with tight uniform
// headways, the whole column fitting the route's start link. Draws
// exactly cars jitter triples from rng, in platoon order.
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

// gridCircuit returns the platoon circuit's corner intersections on a
// rows x cols grid: a rectangle inset a quarter of the grid from each
// edge.
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

// gridAPs places the cityAPs Infostations at the platoon circuit's
// corners, each offset into the street corner like a pole-mounted unit.
func gridAPs(g *traffic.GridNet) []geom.Point {
	loR, loC, hiR, hiC := gridCircuit(g.Spec.Rows, g.Spec.Cols)
	corners := [cityAPs][2]int{{loR, loC}, {loR, hiC}, {hiR, hiC}, {hiR, loC}}
	pts := make([]geom.Point, cityAPs)
	for i, n := range corners {
		p := g.NodePoint(n[0], n[1])
		pts[i] = geom.Point{X: p.X + 8, Y: p.Y + 8}
	}
	return pts
}

// cityScaleChannel is the deep-urban calibration: strong aggregate
// clutter (exponent 4.2, modest transmit power) shrinks the reception
// horizon to a few hundred metres — a small fraction of the city — which
// is exactly the regime where spatially-indexed delivery pays.
func cityScaleChannel() radio.Config {
	return radio.Config{
		PathLossExponent: 4.2,
		TxPowerDBm:       15,
		NoiseFloorDBm:    -92,
		ShadowSigmaDB:    3,
		ShadowTau:        800 * time.Millisecond,
		FadingK:          2,
	}
}
