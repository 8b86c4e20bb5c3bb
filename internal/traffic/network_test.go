package traffic

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestGridNetworkShape(t *testing.T) {
	spec := defaultGridSpec() // 3x3
	g, err := NewGridNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Two directed links per street segment.
	wantLinks := spec.Rows*(spec.Cols-1)*2 + spec.Cols*(spec.Rows-1)*2
	if len(g.Links) != wantLinks {
		t.Fatalf("links = %d, want %d", len(g.Links), wantLinks)
	}
	// Every intersection of a full grid joins both axes, so every one is
	// signalized.
	if len(g.Signals) != spec.Rows*spec.Cols {
		t.Fatalf("signals = %d, want %d", len(g.Signals), spec.Rows*spec.Cols)
	}
	for _, l := range g.Links {
		if math.Abs(l.Length()-spec.BlockM) > 1e-9 {
			t.Fatalf("link %d length %v, want %v", l.ID, l.Length(), spec.BlockM)
		}
		if l.Signal == NoSignal {
			t.Fatalf("link %d exit uncontrolled", l.ID)
		}
		// No U-turns on a full grid: the reverse link never appears as a
		// successor.
		for _, nx := range l.Next {
			a, b := l.Centre.Points()[0], l.Centre.Points()[1]
			na := g.Links[nx].Centre.Points()[0]
			nb := g.Links[nx].Centre.Points()[1]
			if na == b && nb == a {
				t.Fatalf("link %d allows U-turn onto %d", l.ID, nx)
			}
		}
	}
}

func TestGridLinkBetween(t *testing.T) {
	g, err := NewGridNetwork(defaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	id, ok := g.LinkBetween(1, 1, 1, 2)
	if !ok {
		t.Fatal("no link between adjacent intersections")
	}
	l := g.Links[id]
	from, to := g.NodePoint(1, 1), g.NodePoint(1, 2)
	pts := l.Centre.Points()
	if pts[0] != from || pts[len(pts)-1] != to {
		t.Fatalf("link %d runs %v -> %v, want %v -> %v", id, pts[0], pts[len(pts)-1], from, to)
	}
	if _, ok := g.LinkBetween(0, 0, 2, 2); ok {
		t.Fatal("non-adjacent intersections connected")
	}
}

func TestSignalCycle(t *testing.T) {
	g, err := NewGridNetwork(defaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	sig := g.Signals[0]
	cycle := sig.cycle()
	want := 2*defaultGridSpec().Green + 2*defaultGridSpec().AllRed
	if cycle != want {
		t.Fatalf("cycle = %v, want %v", cycle, want)
	}
	ns := sig.Phases[0].Green
	ew := sig.Phases[2].Green
	if len(ns) == 0 || len(ew) == 0 {
		t.Fatalf("empty phase link sets: ns=%v ew=%v", ns, ew)
	}
	// During phase 0 the NS links are green and the EW links red.
	probe := defaultGridSpec().Green / 2
	for _, id := range ns {
		if !greenFor(sig, id, probe) {
			t.Fatalf("NS link %d red during its phase", id)
		}
	}
	for _, id := range ew {
		if greenFor(sig, id, probe) {
			t.Fatalf("EW link %d green during NS phase", id)
		}
	}
	// All-red clearance: nobody is green.
	clearance := defaultGridSpec().Green + defaultGridSpec().AllRed/2
	for _, id := range append(append([]LinkID{}, ns...), ew...) {
		if greenFor(sig, id, clearance) {
			t.Fatalf("link %d green during clearance", id)
		}
	}
	// The cycle wraps: one full cycle later the answers repeat.
	for _, id := range ns {
		if greenFor(sig, id, probe) != greenFor(sig, id, probe+cycle) {
			t.Fatalf("link %d cycle does not wrap", id)
		}
	}
}

func TestLanePointOffsetsRight(t *testing.T) {
	// Eastbound link along +X: right of travel is -Y.
	l := &Link{
		ID:            0,
		Centre:        geom.MustPolyline(geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0}),
		Lanes:         2,
		LaneWidthM:    3,
		SpeedLimitMPS: 10,
		Next:          []LinkID{0},
		Signal:        NoSignal,
	}
	n := &Network{Links: []*Link{l}}
	if err := n.validate(); err != nil {
		t.Fatal(err)
	}
	p0 := l.LanePoint(0, 50)
	p1 := l.LanePoint(1, 50)
	if p0.Y != -1.5 || p1.Y != -4.5 {
		t.Fatalf("lane offsets = %v, %v; want Y=-1.5, Y=-4.5", p0, p1)
	}
	if p0.X != 50 || p1.X != 50 {
		t.Fatalf("arc positions moved: %v %v", p0, p1)
	}
}

func TestRingRoad(t *testing.T) {
	n, err := NewRingRoad(RingSpec{CircumferenceM: 1000, Lanes: 2, LaneWidthM: 3.5, SpeedLimitMPS: 25})
	if err != nil {
		t.Fatal(err)
	}
	l := n.Links[0]
	if !l.loops() {
		t.Fatal("ring link does not loop")
	}
	if math.Abs(l.Length()-1000) > 1e-6 {
		t.Fatalf("ring length = %v, want 1000", l.Length())
	}
	// LanePoint wraps: one full circumference later is the same point.
	a, b := l.LanePoint(0, 150), l.LanePoint(0, 1150)
	if a.Dist(b) > 1e-6 {
		t.Fatalf("wrap mismatch: %v vs %v", a, b)
	}
}

func TestNetworkValidateRejects(t *testing.T) {
	line := geom.MustPolyline(geom.Point{}, geom.Point{X: 100})
	cases := []struct {
		name string
		net  *Network
	}{
		{"no links", &Network{}},
		{"dead end", &Network{Links: []*Link{{ID: 0, Centre: line, Lanes: 1, LaneWidthM: 3, SpeedLimitMPS: 10}}}},
		{"bad successor", &Network{Links: []*Link{{ID: 0, Centre: line, Lanes: 1, LaneWidthM: 3, SpeedLimitMPS: 10, Next: []LinkID{7}}}}},
		{"zero lanes", &Network{Links: []*Link{{ID: 0, Centre: line, LaneWidthM: 3, SpeedLimitMPS: 10, Next: []LinkID{0}}}}},
		{"bad signal", &Network{Links: []*Link{{ID: 0, Centre: line, Lanes: 1, LaneWidthM: 3, SpeedLimitMPS: 10, Next: []LinkID{0}, Signal: 3}}}},
	}
	for _, tc := range cases {
		if err := tc.net.validate(); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}
