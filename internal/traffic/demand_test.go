package traffic

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func demandTestGrid(t *testing.T, lanes int) *GridNet {
	t.Helper()
	g, err := NewGridNetwork(GridSpec{
		Rows: 4, Cols: 4, BlockM: 120, Lanes: lanes, LaneWidthM: 3.2,
		SpeedLimitMPS: 14, Green: 20 * time.Second, AllRed: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShortestRouteOnGrid checks the route assignment: every hop must be
// a legal continuation, the endpoints must match, and — with uniform
// link lengths and speed limits — the link count must equal the BFS
// minimum, proving the route really is shortest.
func TestShortestRouteOnGrid(t *testing.T) {
	g := demandTestGrid(t, 2)
	from, ok := g.LinkBetween(0, 0, 0, 1)
	if !ok {
		t.Fatal("grid misses (0,0)->(0,1)")
	}
	to, ok := g.LinkBetween(3, 2, 3, 3)
	if !ok {
		t.Fatal("grid misses (3,2)->(3,3)")
	}
	route, found := shortestRoute(g.Network, from, to)
	if !found {
		t.Fatal("no route found")
	}
	if route[0] != from || route[len(route)-1] != to {
		t.Fatalf("route endpoints %d..%d, want %d..%d", route[0], route[len(route)-1], from, to)
	}
	for i := 0; i+1 < len(route); i++ {
		legal := false
		for _, nx := range g.link(route[i]).Next {
			if nx == route[i+1] {
				legal = true
			}
		}
		if !legal {
			t.Fatalf("hop %d: link %d does not continue onto %d", i, route[i], route[i+1])
		}
	}
	// BFS over the link graph gives the minimum hop count; with uniform
	// weights Dijkstra must match it.
	wantHops := bfsHops(g.Network, from, to)
	if len(route) != wantHops {
		t.Fatalf("route has %d links, BFS minimum is %d", len(route), wantHops)
	}
}

func bfsHops(net *Network, from, to LinkID) int {
	depth := map[LinkID]int{from: 1}
	queue := []LinkID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			return depth[cur]
		}
		for _, nx := range net.link(cur).Next {
			if _, seen := depth[nx]; !seen {
				depth[nx] = depth[cur] + 1
				queue = append(queue, nx)
			}
		}
	}
	return -1
}

func TestShortestRouteUnreachable(t *testing.T) {
	ring, err := NewRingRoad(RingSpec{CircumferenceM: 500, Lanes: 1, LaneWidthM: 3.5, SpeedLimitMPS: 25})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := shortestRoute(ring, 0, 1); ok {
		t.Fatal("route to an out-of-range link did not fail")
	}
}

func demandTestFlows(t *testing.T, g *GridNet) []DemandFlow {
	t.Helper()
	o1, _ := g.LinkBetween(1, 0, 1, 1)
	d1, _ := g.LinkBetween(1, 2, 1, 3)
	o2, _ := g.LinkBetween(0, 2, 1, 2)
	d2, _ := g.LinkBetween(2, 2, 3, 2)
	return []DemandFlow{
		{Origin: o1, Dest: d1, RateVehPerHour: 600},
		{Origin: o2, Dest: d2, RateVehPerHour: 300},
	}
}

// TestExpandDemandDeterministic pins the expansion as a pure function of
// its inputs: identical calls yield identical specs, a different seed a
// different realisation.
func TestExpandDemandDeterministic(t *testing.T) {
	g := demandTestGrid(t, 2)
	flows := demandTestFlows(t, g)
	a, err := ExpandDemand(g.Network, flows, 5*time.Minute, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExpandDemand(g.Network, flows, 5*time.Minute, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical expansions differ")
	}
	c, err := ExpandDemand(g.Network, flows, 5*time.Minute, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical arrivals")
	}
}

// TestExpandDemandPoissonRate sanity-checks the injection process: over
// a long horizon the vehicle count per flow approaches rate x horizon
// (a 900-arrival expectation has a ~30-vehicle standard deviation; the
// bounds below are > 6 sigma).
func TestExpandDemandPoissonRate(t *testing.T) {
	g := demandTestGrid(t, 2)
	o, _ := g.LinkBetween(1, 0, 1, 1)
	d, _ := g.LinkBetween(1, 2, 1, 3)
	flows := []DemandFlow{{Origin: o, Dest: d, RateVehPerHour: 3600}}
	specs, err := ExpandDemand(g.Network, flows, 900*time.Second, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(specs); n < 700 || n > 1100 {
		t.Fatalf("3600 veh/h over 900 s injected %d vehicles, want ~900", n)
	}
	var last time.Duration
	for i, s := range specs {
		if s.EnterAt <= 0 || s.EnterAt >= 900*time.Second {
			t.Fatalf("vehicle %d enters at %v, outside the horizon", i, s.EnterAt)
		}
		if s.EnterAt < last {
			t.Fatalf("vehicle %d arrival %v precedes previous %v", i, s.EnterAt, last)
		}
		last = s.EnterAt
		if !s.ExitAtEnd || len(s.Route) == 0 {
			t.Fatalf("vehicle %d is not a routed OD vehicle: %+v", i, s)
		}
	}
}

// TestDemandVehiclesDriveAndExit runs an expanded demand population and
// checks the full lifecycle: specs validate, vehicles stay parked until
// their entry time, and early arrivals reach their destination link's
// end and stop there (the OD exit).
func TestDemandVehiclesDriveAndExit(t *testing.T) {
	g := demandTestGrid(t, 2)
	o, _ := g.LinkBetween(1, 0, 1, 1)
	d, _ := g.LinkBetween(1, 2, 1, 3)
	flows := []DemandFlow{{Origin: o, Dest: d, RateVehPerHour: 360}}
	const horizon = 120 * time.Second
	specs, err := ExpandDemand(g.Network, flows, horizon, 11, func(rng *rand.Rand) DriverParams {
		p := DefaultDriver()
		p.DesiredSpeedMPS = 12 + rng.Float64()
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Skip("realisation injected no vehicles") // ~1e-6 probability
	}
	s, err := New(Config{Network: g.Network, Seed: 11}, specs)
	if err != nil {
		t.Fatal(err)
	}

	// Run past the horizon with slack for the trip (route is ~400 m).
	s.RunTo(horizon + 120*time.Second)

	// Before its entry time a vehicle must sit parked at the origin.
	probe := 0
	model, err := s.World().Model(probe)
	if err != nil {
		t.Fatal(err)
	}
	at0 := model.Position(0)
	justBefore := specs[probe].EnterAt - time.Millisecond
	if justBefore > 0 && model.Position(justBefore) != at0 {
		t.Fatal("pending vehicle moved before its entry time")
	}
	destLen := g.link(d).Length()
	exited := 0
	for i := range specs {
		link, _, arc, v := state(s, i)
		if link == d && arc == destLen && v == 0 {
			exited++
		}
	}
	if exited == 0 {
		t.Fatal("no demand vehicle completed its OD trip")
	}
	// Exited vehicles are out of traffic: the mean speed must ignore
	// them (a fully drained network reports zero actives, not NaN).
	if ms := s.MeanSpeedMPS(); ms != ms { // NaN check
		t.Fatal("mean speed is NaN after exits")
	}
}

// TestInjectionDefersUntilEntryClear pins the saturation behaviour: a
// vehicle whose entry slot is blocked by standing traffic stays parked
// past its nominal arrival (spillback), enters only once the queue
// leaves a safe gap, and never overlaps its leader.
func TestInjectionDefersUntilEntryClear(t *testing.T) {
	g := demandTestGrid(t, 1)
	o, _ := g.LinkBetween(1, 0, 1, 1)
	blocker := VehicleSpec{
		Driver: DefaultDriver(),
		Link:   o, Lane: 0, ArcM: 3, SpeedMPS: 0,
		// Creep at the floor speed so the entry slot clears eventually.
		Caps: []SpeedCap{{From: 0, To: time.Hour, MaxMPS: 0}},
	}
	entrant := VehicleSpec{
		Driver: DefaultDriver(),
		Link:   o, Lane: 0, ArcM: 0, SpeedMPS: 6,
		Route: []LinkID{o}, EnterAt: time.Second,
	}
	// An open route of just the origin makes the entrant exit at its
	// end; the blocked-entry mechanics are what is under test.
	entrant.ExitAtEnd = true
	// Single-file: on one lane an "overtake" can only mean the entrant
	// passed through the blocker's body.
	s, err := New(Config{Network: g.Network, Seed: 2},
		[]VehicleSpec{blocker, entrant})
	if err != nil {
		t.Fatal(err)
	}
	tick := 100 * time.Millisecond
	entered := time.Duration(-1)
	for s.now < 3*time.Minute {
		s.step()
		bLink, _, bArc, _ := state(s, 0)
		eLink, _, eArc, _ := state(s, 1)
		if eArc != 0 && entered < 0 {
			entered = s.now
			// The slot was gated, so the entry tick itself must leave
			// the full standstill gap to the queued leader.
			if gap := bArc - blocker.Driver.LengthM - eArc; gap < entrant.Driver.MinGapM-0.7 {
				t.Fatalf("entrant materialised %0.2f m behind its leader at %v", gap, entered)
			}
		}
		// The entrant must never pass through the queued leader (the
		// leapfrog the injection gate exists to prevent). Sub-decimetre
		// bumper overlaps while trailing a floor-speed leader are a
		// known forward-Euler IDM artifact, not an injection bug.
		if bLink == eLink && eArc > bArc {
			t.Fatalf("entrant leapfrogged its leader at %v (%.2f > %.2f)", s.now, eArc, bArc)
		}
	}
	if entered < 0 {
		t.Fatal("entrant never entered although the blocker creeps away")
	}
	// With the blocker at 3 m and a 4.5 m vehicle length, the slot only
	// clears after the blocker creeps several metres — far beyond the
	// nominal 1 s arrival. A couple of ticks of slack guards the bound.
	if entered < time.Second+5*tick {
		t.Fatalf("entrant entered at %v despite a blocked entry slot", entered)
	}
}

func TestDemandSpecValidation(t *testing.T) {
	g := demandTestGrid(t, 2)
	o, _ := g.LinkBetween(1, 0, 1, 1)
	base := VehicleSpec{Driver: DefaultDriver(), Link: o, ArcM: 10}

	bad := base
	bad.EnterAt = -time.Second
	if _, err := New(Config{Network: g.Network}, []VehicleSpec{bad}); err == nil {
		t.Fatal("negative entry time accepted")
	}
	bad = base
	bad.ExitAtEnd = true // no route
	if _, err := New(Config{Network: g.Network}, []VehicleSpec{bad}); err == nil {
		t.Fatal("exit-at-end without route accepted")
	}

	ring, err := NewRingRoad(RingSpec{CircumferenceM: 500, Lanes: 1, LaneWidthM: 3.5, SpeedLimitMPS: 25})
	if err != nil {
		t.Fatal(err)
	}
	loop := VehicleSpec{Driver: DefaultDriver(), Link: 0, ArcM: 10, Route: []LinkID{0}, ExitAtEnd: true}
	if _, err := New(Config{Network: ring}, []VehicleSpec{loop}); err == nil {
		t.Fatal("OD route through a loop link accepted")
	}
}
