package traffic

import (
	"math"
	"testing"
	"time"
)

// straightCorridor is a single 1 km one-way street feeding back into
// itself through a short return link, so open-road tests need no spawn
// logic. Lanes as given; no signals.
func straightCorridor(lanes int) *Network {
	n, err := NewRingRoad(RingSpec{CircumferenceM: 1000, Lanes: lanes, LaneWidthM: 3.5, SpeedLimitMPS: 14})
	if err != nil {
		panic(err)
	}
	return n
}

func TestFreeVehicleReachesSpeedLimit(t *testing.T) {
	net := straightCorridor(1)
	drv := DefaultDriver()
	drv.DesiredSpeedMPS = 20 // above the 14 m/s limit: the link caps it
	s, err := New(Config{Network: net, Seed: 1}, []VehicleSpec{{Driver: drv, Link: 0}})
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(60 * time.Second)
	_, _, _, v := state(s, 0)
	if math.Abs(v-14) > 0.3 {
		t.Fatalf("cruise speed = %v, want ~14 (link limit)", v)
	}
}

func TestFollowerSettlesAtEquilibriumGap(t *testing.T) {
	net := straightCorridor(1)
	drv := DefaultDriver()
	drv.DesiredSpeedMPS = 20
	// Leader capped at 8 m/s for the whole run; follower starts far
	// behind and should close to the 8 m/s equilibrium gap.
	specs := []VehicleSpec{
		{Driver: drv, Link: 0, ArcM: 200, SpeedMPS: 8,
			Caps: []SpeedCap{{From: 0, To: time.Hour, MaxMPS: 8}}},
		{Driver: drv, Link: 0, ArcM: 50, SpeedMPS: 8},
	}
	s, err := New(Config{Network: net, Seed: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(3 * time.Minute)
	_, _, arcLead, vLead := state(s, 0)
	_, _, arcFol, vFol := state(s, 1)
	if math.Abs(vLead-8) > 0.2 || math.Abs(vFol-8) > 0.2 {
		t.Fatalf("speeds = %v, %v, want ~8", vLead, vFol)
	}
	gap := arcLead - arcFol
	if gap < 0 {
		gap += net.Links[0].Length()
	}
	gap -= drv.LengthM
	want := equilibriumGap(drv, 8, 14)
	if math.Abs(gap-want) > 1.5 {
		t.Fatalf("steady gap = %v, want ~%v", gap, want)
	}
}

// gridCross builds a minimal 2x2 grid with the given lanes per link and
// returns the eastbound link heading for the signalized intersection at
// node (0,1).
func gridCross(t *testing.T, lanes int) (*GridNet, LinkID) {
	t.Helper()
	spec := defaultGridSpec()
	spec.Rows, spec.Cols, spec.Lanes = 2, 2, lanes
	g, err := NewGridNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	east, ok := g.LinkBetween(0, 0, 0, 1)
	if !ok {
		t.Fatal("no eastbound link")
	}
	return g, east
}

// TestGreenTableFollowsFixedCycle: the per-tick green table, which is
// rewritten only when a signal's phase ends, shows on every tick exactly
// what each fixed-cycle schedule says at that tick's time — over several
// cycles, with positive, negative and zero signal offsets and a phase
// that does not end on a tick boundary.
func TestGreenTableFollowsFixedCycle(t *testing.T) {
	spec := defaultGridSpec()
	spec.Green = 7*time.Second + 30*time.Millisecond
	g, err := NewGridNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, sig := range g.Signals {
		sig.Offset = time.Duration(i-len(g.Signals)/2) * 3 * time.Second
	}
	s, err := New(Config{Network: g.Network, Seed: 1}, []VehicleSpec{{Driver: DefaultDriver(), Link: 0, SpeedMPS: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 600; tick++ {
		// Step advances the clock after it drives, so the table holds
		// the displays of the tick that just ran.
		at := s.now
		if tick > 0 {
			at -= tickLen
		}
		for _, l := range g.Links {
			want := l.Signal == NoSignal || greenFor(g.Signals[l.Signal], l.ID, at)
			if got := signalGreen(s, l.ID); got != want {
				t.Fatalf("tick %d (t=%v): link %d green %v, schedule says %v", tick, at, l.ID, got, want)
			}
		}
		s.step()
	}
}

func TestRedLightStopsVehicle(t *testing.T) {
	g, east := gridCross(t, defaultGridSpec().Lanes)
	l := g.Links[east]
	sig := g.Signals[l.Signal]
	// Phase 0 is north-south green: an eastbound (EW) vehicle sees red.
	if greenFor(sig, east, 0) {
		t.Fatal("eastbound green at t=0; test setup expects red")
	}
	drv := DefaultDriver()
	s, err := New(Config{Network: g.Network, Seed: 1}, []VehicleSpec{
		{Driver: drv, Link: east, ArcM: 0, SpeedMPS: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 120 m at ~10-14 m/s reaches the stop line well inside the 24 s red.
	s.RunTo(20 * time.Second)
	link, _, arc, v := state(s, 0)
	if link != east {
		t.Fatalf("vehicle crossed on red (link %d)", link)
	}
	if v > 0.3 {
		t.Fatalf("vehicle still moving at red: v=%v", v)
	}
	if stop := l.Length() - 2; arc > stop || arc < stop-8 {
		t.Fatalf("stopped at arc %v, want just behind stop line %v", arc, stop)
	}
	// After the green starts (24s+4s clearance), it crosses.
	s.RunTo(45 * time.Second)
	if link, _, _, _ := state(s, 0); link == east {
		t.Fatal("vehicle never crossed after green")
	}
}

func TestQueueCompresssAtRed(t *testing.T) {
	// One lane: the queue stays single-file.
	g, east := gridCross(t, 1)
	drv := DefaultDriver()
	specs := []VehicleSpec{
		{Driver: drv, Link: east, ArcM: 90, SpeedMPS: 10},
		{Driver: drv, Link: east, ArcM: 60, SpeedMPS: 10},
		{Driver: drv, Link: east, ArcM: 30, SpeedMPS: 10},
	}
	s, err := New(Config{Network: g.Network, Seed: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(22 * time.Second)
	// All three queued on the red: spacing collapses to roughly the
	// standstill gap (well under the initial 30 m).
	_, _, arc0, _ := state(s, 0)
	_, _, arc1, _ := state(s, 1)
	_, _, arc2, _ := state(s, 2)
	if !(arc0 > arc1 && arc1 > arc2) {
		t.Fatalf("queue out of order: %v %v %v", arc0, arc1, arc2)
	}
	for i, gap := range []float64{arc0 - arc1, arc1 - arc2} {
		net := gap - drv.LengthM
		if net > 2*drv.MinGapM+1 {
			t.Fatalf("gap %d = %v m, want compressed to ~%v", i, net, drv.MinGapM)
		}
		if net < 0.2 {
			t.Fatalf("gap %d = %v m: overlap", i, net)
		}
	}
}

func TestLaneChangeOvertakesSlowLeader(t *testing.T) {
	net := straightCorridor(2)
	fast := DefaultDriver()
	fast.DesiredSpeedMPS = 14
	slow := DefaultDriver()
	slow.DesiredSpeedMPS = 3
	specs := []VehicleSpec{
		{Driver: slow, Link: 0, Lane: 0, ArcM: 100, SpeedMPS: 3},
		{Driver: fast, Link: 0, Lane: 0, ArcM: 40, SpeedMPS: 10},
	}
	s, err := New(Config{Network: net, Seed: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(40 * time.Second)
	_, lane, _, v := state(s, 1)
	if lane != 1 {
		t.Fatalf("fast vehicle still in lane 0 (v=%v)", v)
	}
	if v < 10 {
		t.Fatalf("fast vehicle crawling at %v after change", v)
	}
	// With no second lane to change into it stays stuck behind.
	s2, err := New(Config{Network: straightCorridor(1), Seed: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s2.RunTo(40 * time.Second)
	if _, lane, _, v := state(s2, 1); lane != 0 || v > 4 {
		t.Fatalf("one-lane corridor: lane=%d v=%v, want stuck in lane 0 at ~3", lane, v)
	}
}

func TestStopAndGoWavePropagates(t *testing.T) {
	net := straightCorridor(1)
	drv := DefaultDriver()
	drv.DesiredSpeedMPS = 14
	// 25 vehicles on a 1 km ring, evenly spaced at 40 m; vehicle 0
	// brakes hard for 15 s early on.
	var specs []VehicleSpec
	for i := 0; i < 25; i++ {
		spec := VehicleSpec{Driver: drv, Link: 0, ArcM: float64(i * 40), SpeedMPS: 10}
		if i == 0 {
			spec.Caps = []SpeedCap{{From: 10 * time.Second, To: 25 * time.Second, MaxMPS: 1}}
		}
		specs = append(specs, spec)
	}
	s, err := New(Config{Network: net, Seed: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(10 * time.Second)
	if n := stoppedCount(s, 2); n != 0 {
		t.Fatalf("%d vehicles crawling before the perturbation", n)
	}
	// While vehicle 0 crawls, the wave spreads to the vehicles behind it
	// (IDs 24, 23, ... are upstream on the ring).
	s.RunTo(30 * time.Second)
	slowed := 0
	for i := 20; i < 25; i++ {
		if _, _, _, v := state(s, i); v < 5 {
			slowed++
		}
	}
	if slowed == 0 {
		t.Fatal("no upstream vehicle slowed: wave did not propagate")
	}
	// Mean speed dips well below free flow during the jam.
	if m := s.MeanSpeedMPS(); m > 12 {
		t.Fatalf("mean speed %v during jam, want depressed", m)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	build := func() *Simulation {
		g, err := NewGridNetwork(defaultGridSpec())
		if err != nil {
			t.Fatal(err)
		}
		var specs []VehicleSpec
		for i := 0; i < 30; i++ {
			specs = append(specs, VehicleSpec{
				Driver: DefaultDriver(),
				Link:   LinkID(i % len(g.Links)),
				ArcM:   float64(20 + (i/len(g.Links))*30),
			})
		}
		s, err := New(Config{Network: g.Network, Seed: 42}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	a.RunTo(60 * time.Second)
	b.RunTo(60 * time.Second)
	for i := 0; i < len(a.vehs); i++ {
		la, na, aa, va := state(a, i)
		lb, nb, ab, vb := state(b, i)
		if la != lb || na != nb || aa != ab || va != vb {
			t.Fatalf("vehicle %d diverged: (%d,%d,%v,%v) vs (%d,%d,%v,%v)",
				i, la, na, aa, va, lb, nb, ab, vb)
		}
	}
}

func TestRouteFollowing(t *testing.T) {
	g, err := NewGridNetwork(defaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Clockwise loop around the south-west block.
	var route []LinkID
	hops := [][4]int{{0, 0, 0, 1}, {0, 1, 1, 1}, {1, 1, 1, 0}, {1, 0, 0, 0}}
	for _, h := range hops {
		id, ok := g.LinkBetween(h[0], h[1], h[2], h[3])
		if !ok {
			t.Fatalf("no link %v", h)
		}
		route = append(route, id)
	}
	s, err := New(Config{Network: g.Network, Seed: 1}, []VehicleSpec{
		{Driver: DefaultDriver(), Link: route[0], ArcM: 10, Route: route},
	})
	if err != nil {
		t.Fatal(err)
	}
	onRoute := map[LinkID]bool{}
	for _, id := range route {
		onRoute[id] = true
	}
	visited := map[LinkID]bool{}
	for i := 0; i < 3000; i++ {
		s.step()
		link, _, _, _ := state(s, 0)
		if !onRoute[link] {
			t.Fatalf("vehicle left its route onto link %d", link)
		}
		visited[link] = true
	}
	if len(visited) != len(route) {
		t.Fatalf("visited %d route links in 5 min, want all %d", len(visited), len(route))
	}
}

func TestVehicleSpecValidation(t *testing.T) {
	g, err := NewGridNetwork(defaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	ok := VehicleSpec{Driver: DefaultDriver(), Link: 0, ArcM: 10}
	cases := []struct {
		name   string
		mutate func(*VehicleSpec)
	}{
		{"bad link", func(s *VehicleSpec) { s.Link = 999 }},
		{"bad lane", func(s *VehicleSpec) { s.Lane = 5 }},
		{"bad arc", func(s *VehicleSpec) { s.ArcM = 1e6 }},
		{"negative speed", func(s *VehicleSpec) { s.SpeedMPS = -1 }},
		{"bad driver", func(s *VehicleSpec) { s.Driver.MinGapM = -1 }},
		{"disconnected route", func(s *VehicleSpec) { s.Route = []LinkID{0, 1} }},
		{"route elsewhere", func(s *VehicleSpec) {
			s.Route = []LinkID{g.Links[1].ID, g.Links[1].Next[0]}
			// vehicle sits on link 0 but the route starts at link 1
		}},
	}
	for _, tc := range cases {
		spec := ok
		tc.mutate(&spec)
		if _, err := New(Config{Network: g.Network, Seed: 1}, []VehicleSpec{spec}); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if _, err := New(Config{Network: g.Network, Seed: 1}, nil); err == nil {
		t.Fatal("empty population accepted")
	}
	if _, err := New(Config{Seed: 1}, []VehicleSpec{ok}); err == nil {
		t.Fatal("nil network accepted")
	}
}
