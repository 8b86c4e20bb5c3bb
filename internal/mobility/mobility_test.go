package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
	"repro/internal/sim"
)

func square(side float64) *geom.Polyline {
	return geom.MustPolyline(
		geom.Point{X: 0, Y: 0}, geom.Point{X: side, Y: 0},
		geom.Point{X: side, Y: side}, geom.Point{X: 0, Y: side}, geom.Point{X: 0, Y: 0},
	)
}

func TestNewPathFollowerValidation(t *testing.T) {
	path := square(100)
	if _, err := NewPathFollower(FollowerConfig{Path: nil, SpeedMPS: 5}); err == nil {
		t.Fatal("nil path accepted")
	}
	if _, err := NewPathFollower(FollowerConfig{Path: path, SpeedMPS: 0}); err == nil {
		t.Fatal("zero speed accepted")
	}
	if _, err := NewPathFollower(FollowerConfig{
		Path: path, SpeedMPS: 5, Zones: []SpeedZone{{0, 10, 0}},
	}); err == nil {
		t.Fatal("zero zone factor accepted")
	}
	if _, err := NewPathFollower(FollowerConfig{
		Path: path, SpeedMPS: 5, Zones: []SpeedZone{{10, 10, 1}},
	}); err == nil {
		t.Fatal("empty zone range accepted")
	}
}

// TestPathFollowerDegeneratePaths covers the degenerate geometry edge
// cases: paths that cannot be built (zero points, one point, coincident
// points) must be rejected at the polyline layer, and NewPathFollower
// must never be constructible over them.
func TestPathFollowerDegeneratePaths(t *testing.T) {
	if _, err := geom.NewPolyline(); err == nil {
		t.Fatal("empty polyline accepted")
	}
	if _, err := geom.NewPolyline(geom.Point{X: 1, Y: 2}); err == nil {
		t.Fatal("single-point polyline accepted")
	}
	// All-coincident points: a polyline with zero total length.
	if _, err := geom.NewPolyline(geom.Point{X: 3, Y: 3}, geom.Point{X: 3, Y: 3}); err == nil {
		t.Fatal("zero-length polyline accepted")
	}
}

// TestPathFollowerOverlappingZones checks that overlapping SpeedZones
// compose multiplicatively: a follower inside both a 0.5x and a 0.5x zone
// travels at a quarter speed.
func TestPathFollowerOverlappingZones(t *testing.T) {
	path := StraightHighway(100)
	f := MustPathFollower(FollowerConfig{
		Path:     path,
		SpeedMPS: 10,
		Zones: []SpeedZone{
			{FromArc: 0, ToArc: 100, Factor: 0.5},
			{FromArc: 40, ToArc: 60, Factor: 0.5},
		},
	})
	// 0..40 m at 5 m/s (8 s) + 40..60 m at 2.5 m/s (8 s) + 60..100 m at
	// 5 m/s (8 s) = 24 s for the full traversal.
	if got := f.LapTime().Seconds(); math.Abs(got-24) > 0.1 {
		t.Fatalf("LapTime = %vs, want ~24s", got)
	}
	// Mid-overlap position: 8 s to reach 40 m, then 4 s at 2.5 m/s = 50 m.
	p := f.Position(12 * time.Second)
	if math.Abs(p.X-50) > 0.5 {
		t.Fatalf("Position(12s).X = %v, want ~50", p.X)
	}
}

// TestPathFollowerStartArcBeyondLap checks that StartArc wraps on looped
// paths: starting 1.25 laps in is the same as starting 0.25 laps in, and
// negative offsets wrap backwards.
func TestPathFollowerStartArcBeyondLap(t *testing.T) {
	path := square(100) // 400 m loop
	base := MustPathFollower(FollowerConfig{Path: path, Loop: true, SpeedMPS: 10, StartArc: 100})
	ahead := MustPathFollower(FollowerConfig{Path: path, Loop: true, SpeedMPS: 10, StartArc: 500})
	twoAhead := MustPathFollower(FollowerConfig{Path: path, Loop: true, SpeedMPS: 10, StartArc: 900})
	negative := MustPathFollower(FollowerConfig{Path: path, Loop: true, SpeedMPS: 10, StartArc: -300})
	for _, at := range []time.Duration{0, 7 * time.Second, time.Minute} {
		want := base.Position(at)
		for name, f := range map[string]*PathFollower{
			"one lap ahead": ahead, "two laps ahead": twoAhead, "negative": negative,
		} {
			if got := f.Position(at); got.Dist(want) > 1e-6 {
				t.Fatalf("%s: Position(%v) = %v, want %v", name, at, got, want)
			}
		}
	}
	// The wrapped starts must actually be offset from the path origin.
	if got := base.Position(0); got.Dist(path.At(100)) > 1e-6 {
		t.Fatalf("base start = %v, want %v", got, path.At(100))
	}
}

func TestConstantSpeedStraightLine(t *testing.T) {
	path := StraightHighway(1000)
	f := MustPathFollower(FollowerConfig{Path: path, SpeedMPS: 10})
	for _, tt := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 0}, {10 * time.Second, 100}, {50 * time.Second, 500},
	} {
		p := f.Position(tt.at)
		if math.Abs(p.X-tt.want) > 0.01 {
			t.Fatalf("Position(%v).X = %v, want %v", tt.at, p.X, tt.want)
		}
	}
	// Open path: stops at the end.
	end := f.Position(500 * time.Second)
	if math.Abs(end.X-1000) > 0.01 {
		t.Fatalf("follower did not stop at end: %v", end)
	}
}

func TestLapTime(t *testing.T) {
	f := MustPathFollower(FollowerConfig{Path: square(100), Loop: true, SpeedMPS: 10})
	// 400 m at 10 m/s = 40 s.
	if got := f.LapTime(); math.Abs(got.Seconds()-40) > 0.05 {
		t.Fatalf("LapTime = %v, want ~40s", got)
	}
}

func TestLoopWrapsAround(t *testing.T) {
	f := MustPathFollower(FollowerConfig{Path: square(100), Loop: true, SpeedMPS: 10})
	p0 := f.Position(0)
	p1 := f.Position(f.LapTime())
	if p0.Dist(p1) > 0.5 {
		t.Fatalf("one lap did not return to start: %v vs %v", p0, p1)
	}
	// Arc keeps increasing (unwrapped).
	a1 := f.ArcAt(f.LapTime())
	a2 := f.ArcAt(2 * f.LapTime())
	if math.Abs(a1-400) > 0.5 || math.Abs(a2-800) > 1.0 {
		t.Fatalf("unwrapped arcs = %v, %v; want ~400, ~800", a1, a2)
	}
}

func TestStartArcOffset(t *testing.T) {
	f := MustPathFollower(FollowerConfig{Path: square(100), Loop: true, SpeedMPS: 10, StartArc: 50})
	p := f.Position(0)
	want := square(100).At(50)
	if p.Dist(want) > 0.5 {
		t.Fatalf("Position(0) = %v, want %v", p, want)
	}
}

func TestSpeedZoneSlowsCorner(t *testing.T) {
	base := MustPathFollower(FollowerConfig{Path: square(100), Loop: true, SpeedMPS: 10})
	slowed := MustPathFollower(FollowerConfig{
		Path: square(100), Loop: true, SpeedMPS: 10,
		Zones: []SpeedZone{{FromArc: 90, ToArc: 110, Factor: 0.5}},
	})
	// 20 m at half speed adds 2 s to the lap.
	delta := slowed.LapTime().Seconds() - base.LapTime().Seconds()
	if math.Abs(delta-2) > 0.1 {
		t.Fatalf("zone lap-time delta = %v s, want ~2", delta)
	}
}

func TestArcMonotoneProperty(t *testing.T) {
	f := MustPathFollower(FollowerConfig{
		Path: square(120), Loop: true, SpeedMPS: 6,
		Zones: []SpeedZone{{100, 140, 0.4}, {340, 380, 0.5}},
	})
	check := func(t1, t2 uint16) bool {
		a := time.Duration(t1) * 100 * time.Millisecond
		b := time.Duration(t2) * 100 * time.Millisecond
		if a > b {
			a, b = b, a
		}
		return f.ArcAt(b)-f.ArcAt(a) >= -1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestArcSpeedBoundsProperty(t *testing.T) {
	// Arc progress over dt never exceeds maxSpeed*dt nor drops below
	// minSpeed*dt (within integration tolerance).
	f := MustPathFollower(FollowerConfig{
		Path: square(120), Loop: true, SpeedMPS: 10,
		Zones: []SpeedZone{{100, 140, 0.4}},
	})
	check := func(raw uint16) bool {
		a := time.Duration(raw) * 37 * time.Millisecond
		dt := 2 * time.Second
		ds := f.ArcAt(a+dt) - f.ArcAt(a)
		return ds <= 10*dt.Seconds()+0.5 && ds >= 4*dt.Seconds()-0.5
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func defaultProfiles() []DriverProfile {
	return []DriverProfile{
		{Name: "car1"},
		{Name: "car2", HeadwayM: 30, HeadwayJitterM: 5, WobbleM: 5, WobblePeriod: 40 * time.Second},
		{Name: "car3", HeadwayM: 30, HeadwayJitterM: 5, WobbleM: 5, WobblePeriod: 40 * time.Second},
	}
}

func TestNewPlatoonValidation(t *testing.T) {
	leader := MustPathFollower(FollowerConfig{Path: square(100), Loop: true, SpeedMPS: 5})
	rng := sim.Stream(1, "platoon")
	if _, err := NewPlatoon(nil, defaultProfiles(), rng); err == nil {
		t.Fatal("nil leader accepted")
	}
	if _, err := NewPlatoon(leader, nil, rng); err == nil {
		t.Fatal("empty platoon accepted")
	}
	bad := defaultProfiles()
	bad[1].HeadwayM = 0
	if _, err := NewPlatoon(leader, bad, rng); err == nil {
		t.Fatal("zero headway accepted")
	}
	bad2 := defaultProfiles()
	bad2[2].Squeezes = []GapSqueeze{{0, 10, -1}}
	if _, err := NewPlatoon(leader, bad2, rng); err == nil {
		t.Fatal("negative squeeze accepted")
	}
}

func TestPlatoonOrdering(t *testing.T) {
	leader := MustPathFollower(FollowerConfig{Path: square(200), Loop: true, SpeedMPS: 6, StartArc: 400})
	p, err := NewPlatoon(leader, defaultProfiles(), sim.Stream(1, "platoon"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 3 {
		t.Fatalf("Size = %d", p.Size())
	}
	for _, at := range []time.Duration{0, 10 * time.Second, time.Minute} {
		a0 := p.ArcAt(0, at)
		a1 := p.ArcAt(1, at)
		a2 := p.ArcAt(2, at)
		if !(a0 > a1 && a1 > a2) {
			t.Fatalf("at %v: arcs not ordered: %v %v %v", at, a0, a1, a2)
		}
	}
}

func TestPlatoonGapsNeverCollapse(t *testing.T) {
	leader := MustPathFollower(FollowerConfig{Path: square(200), Loop: true, SpeedMPS: 6})
	profs := defaultProfiles()
	// Extreme squeeze that would invert the gap without the floor.
	profs[2].Squeezes = []GapSqueeze{{0, 800, 0.001}}
	p, err := NewPlatoon(leader, profs, sim.Stream(2, "platoon"))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 120; s++ {
		now := time.Duration(s) * time.Second
		if g := gap(p, 2, now); g < 3 {
			t.Fatalf("gap collapsed to %v m at %v", g, now)
		}
	}
}

func TestSqueezeReducesGapInZone(t *testing.T) {
	leader := MustPathFollower(FollowerConfig{Path: square(200), Loop: true, SpeedMPS: 10})
	profs := []DriverProfile{
		{Name: "lead"},
		{Name: "tail", HeadwayM: 40, Squeezes: []GapSqueeze{{FromArc: 300, ToArc: 500, Factor: 0.25}}},
	}
	p, err := NewPlatoon(leader, profs, sim.Stream(3, "platoon"))
	if err != nil {
		t.Fatal(err)
	}
	// Leader at arc 100 (t=10s): no squeeze.
	if g := gap(p, 1, 10*time.Second); math.Abs(g-40) > 1e-9 {
		t.Fatalf("gap outside zone = %v, want 40", g)
	}
	// Leader at arc 400 (t=40s): squeezed to 10.
	if g := gap(p, 1, 40*time.Second); math.Abs(g-10) > 1e-9 {
		t.Fatalf("gap inside zone = %v, want 10", g)
	}
}

func TestPlatoonDeterministicPerSeed(t *testing.T) {
	build := func(seed int64) *Platoon {
		leader := MustPathFollower(FollowerConfig{Path: square(200), Loop: true, SpeedMPS: 6})
		p, err := NewPlatoon(leader, defaultProfiles(), sim.Stream(seed, "round"))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := build(1), build(1), build(2)
	at := 33 * time.Second
	if a.ArcAt(2, at) != b.ArcAt(2, at) {
		t.Fatal("same seed produced different platoons")
	}
	if a.ArcAt(2, at) == c.ArcAt(2, at) {
		t.Fatal("different seeds produced identical platoons")
	}
}

func TestPlatoonCarPositionsOnPath(t *testing.T) {
	path := square(200)
	leader := MustPathFollower(FollowerConfig{Path: path, Loop: true, SpeedMPS: 6})
	p, err := NewPlatoon(leader, defaultProfiles(), sim.Stream(4, "round"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Size(); i++ {
		pos := p.Car(i).Position(25 * time.Second)
		if pos.X < -1e-6 || pos.X > 200+1e-6 || pos.Y < -1e-6 || pos.Y > 200+1e-6 {
			t.Fatalf("car %d off the square: %v", i, pos)
		}
	}
	if got := spacing(p, 25*time.Second); len(got) != 2 || got[0] <= 0 || got[1] <= 0 {
		t.Fatalf("spacing = %v, want two positive distances", got)
	}
}

func TestPlatoonIndexPanics(t *testing.T) {
	leader := MustPathFollower(FollowerConfig{Path: square(100), Loop: true, SpeedMPS: 5})
	p, err := NewPlatoon(leader, defaultProfiles(), sim.Stream(5, "x"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(){
		func() { p.Car(-1) },
		func() { p.Car(3) },
		func() { p.ArcAt(7, 0) },
		func() { gap(p, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range index did not panic")
				}
			}()
			fn()
		}()
	}
}

// gap returns car i's instantaneous gap behind car i-1 (i >= 1),
// evaluating the leader afresh.
func gap(p *Platoon, i int, now time.Duration) float64 {
	if i <= 0 || i >= len(p.profiles) {
		panic(fmt.Sprintf("mobility: gap index %d out of range [1,%d)", i, len(p.profiles)))
	}
	return p.gapAt(i, now, math.Mod(p.leader.ArcAt(now), p.leader.PathLength()))
}

// spacing returns the distances between consecutive cars' positions at
// now.
func spacing(p *Platoon, now time.Duration) []float64 {
	out := make([]float64, 0, p.Size()-1)
	for i := 1; i < p.Size(); i++ {
		out = append(out, p.Car(i-1).Position(now).Dist(p.Car(i).Position(now)))
	}
	return out
}

// naiveArc is car i's arc evaluated from nothing: the leader once for
// its arc and once more inside every gap, with no memo.
func naiveArc(p *Platoon, i int, now time.Duration) float64 {
	arc := p.leader.ArcAt(now)
	for j := 1; j <= i; j++ {
		arc -= gap(p, j, now)
	}
	return arc
}

// TestPlatoonArcAtMatchesNaive checks the memoised ArcAt bit for bit
// against naiveArc for every car, on a looped path with squeezes and an
// open one, at instants visited in shuffled order with repeats and steps
// backward, each instant's cars queried in a random order.
func TestPlatoonArcAtMatchesNaive(t *testing.T) {
	profs := append(defaultProfiles(), DriverProfile{
		Name: "car4", HeadwayM: 25, HeadwayJitterM: 4, WobbleM: 3, WobblePeriod: 17 * time.Second,
		Squeezes: []GapSqueeze{{FromArc: 100, ToArc: 300, Factor: 0.4}, {FromArc: 250, ToArc: 500, Factor: 0.7}},
	})
	leaders := []*PathFollower{
		MustPathFollower(FollowerConfig{Path: square(200), Loop: true, SpeedMPS: 6, StartArc: 90,
			Zones: []SpeedZone{{100, 140, 0.5}}}),
		MustPathFollower(FollowerConfig{Path: StraightHighway(900), SpeedMPS: 20}),
	}
	rng := rand.New(rand.NewSource(11))
	for li, leader := range leaders {
		p, err := NewPlatoon(leader, profs, sim.Stream(int64(li), "platoon"))
		if err != nil {
			t.Fatal(err)
		}
		var instants []time.Duration
		for k := 0; k < 400; k++ {
			instants = append(instants, time.Duration(rng.Int63n(int64(3*time.Minute))))
		}
		// Repeats, both back to back and after other instants.
		instants = append(instants, instants[:50]...)
		rng.Shuffle(len(instants), func(a, b int) { instants[a], instants[b] = instants[b], instants[a] })
		instants = append(instants, instants[7], instants[7], 0, time.Minute, 0)
		for _, now := range instants {
			for _, i := range rng.Perm(p.Size())[:1+rng.Intn(p.Size())] {
				got, want := p.ArcAt(i, now), naiveArc(p, i, now)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("leader %d, car %d at %v: ArcAt = %v, naive %v", li, i, now, got, want)
				}
			}
		}
	}
}

func BenchmarkPlatoonPosition(b *testing.B) {
	leader := MustPathFollower(FollowerConfig{
		Path: square(200), Loop: true, SpeedMPS: 6,
		Zones: []SpeedZone{{100, 140, 0.5}},
	})
	p, err := NewPlatoon(leader, defaultProfiles(), sim.Stream(1, "bench"))
	if err != nil {
		b.Fatal(err)
	}
	car := p.Car(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		car.Position(time.Duration(i) * time.Millisecond)
	}
}
