package traffic

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/mobility"
	"repro/internal/trace"
)

// recordGridRun steps a small grid population and returns its recorded
// world.
func recordGridRun(t *testing.T, d time.Duration) *World {
	t.Helper()
	g, err := NewGridNetwork(defaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	var specs []VehicleSpec
	for i := 0; i < 15; i++ {
		specs = append(specs, VehicleSpec{
			Driver: DefaultDriver(),
			Link:   LinkID(i % len(g.Links)),
			ArcM:   float64(15 + i*3),
		})
	}
	s, err := New(Config{Network: g.Network, Seed: 11}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(d)
	return s.World()
}

// oracleWorld is one traffic world the replay oracle records and
// re-steps: a network, its vehicle population and a horizon.
type oracleWorld struct {
	name    string
	net     *Network
	specs   []VehicleSpec
	horizon time.Duration
}

// oracleWorlds returns a fixed-population grid (random turns, lane
// changes) and a demand-driven grid whose vehicles enter parked, change
// lanes and exit at the end of their routes.
func oracleWorlds(t *testing.T) []oracleWorld {
	t.Helper()
	g, err := NewGridNetwork(defaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	var fixed []VehicleSpec
	for i := 0; i < 15; i++ {
		fixed = append(fixed, VehicleSpec{
			Driver: DefaultDriver(),
			Link:   LinkID(i % len(g.Links)),
			ArcM:   float64(15 + i*3),
		})
	}

	dg := demandTestGrid(t, 2)
	var flows []DemandFlow
	for _, od := range [][2][4]int{
		{{1, 0, 1, 1}, {1, 2, 1, 3}},
		{{0, 1, 1, 1}, {2, 1, 3, 1}},
		{{3, 2, 2, 2}, {1, 2, 0, 2}},
	} {
		o, ok := dg.LinkBetween(od[0][0], od[0][1], od[0][2], od[0][3])
		d, ok2 := dg.LinkBetween(od[1][0], od[1][1], od[1][2], od[1][3])
		if !ok || !ok2 {
			t.Fatalf("grid misses OD pair %v", od)
		}
		flows = append(flows, DemandFlow{Origin: o, Dest: d, RateVehPerHour: 900})
	}
	demand, err := ExpandDemand(dg.Network, flows, 60*time.Second, 5, func(rng *rand.Rand) DriverParams {
		p := DefaultDriver()
		p.DesiredSpeedMPS = 6 + 8*rng.Float64()
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	return []oracleWorld{
		{"grid", g.Network, fixed, 40 * time.Second},
		{"demand", dg.Network, demand, 150 * time.Second},
	}
}

// TestReplayMatchesLiveExactly is the record-then-replay fidelity
// oracle: record a world, then step the same world again and check that
// at every tick that records a sample, each recorded vehicle's model
// returns exactly the simulator's state (PositionNow), and the world's
// serialized form, read back through each trace codec, holds exactly
// the samples the re-run takes, in the order it takes them. It also
// checks the worlds exercise parked entries, route-end exits and lane
// changes, so those sample paths are covered.
func TestReplayMatchesLiveExactly(t *testing.T) {
	codecs := []struct {
		name      string
		roundTrip func(*trace.Collector) (*trace.Collector, error)
	}{
		{"jsonl", func(c *trace.Collector) (*trace.Collector, error) {
			var buf bytes.Buffer
			if err := c.WriteJSONL(&buf); err != nil {
				return nil, err
			}
			return trace.ReadJSONL(&buf)
		}},
		{"binary", func(c *trace.Collector) (*trace.Collector, error) {
			return trace.DecodeBinary(c.AppendBinary(nil))
		}},
	}
	for _, w := range oracleWorlds(t) {
		s, err := New(Config{Network: w.net, Seed: 11}, w.specs)
		if err != nil {
			t.Fatal(err)
		}
		s.RunTo(w.horizon)
		world := s.World()
		if len(world.tracks) != len(w.specs) {
			t.Fatalf("%s: world has %d vehicles, want %d", w.name, len(world.tracks), len(w.specs))
		}
		for _, codec := range codecs {
			t.Run(w.name+"/"+codec.name, func(t *testing.T) {
				col, err := codec.roundTrip(world.Trace())
				if err != nil {
					t.Fatal(err)
				}
				models := make([]mobility.Model, len(w.specs))
				for id := range models {
					if models[id], err = world.Model(id); err != nil {
						t.Fatal(err)
					}
				}

				s, err := New(Config{Network: w.net, Seed: 11}, w.specs)
				if err != nil {
					t.Fatal(err)
				}
				// The serialized form is time-major in ID order, so the
				// re-run meets its records in stream order.
				recs := col.Vehicles
				// seen[id] counts vehicle id's samples checked so far.
				seen := make([]int, len(w.specs))
				checked, laneChanges := 0, 0
				check := func() {
					for id, tr := range s.tracks {
						samples := tr.samples
						for _, smp := range samples[seen[id]:] {
							if got, want := models[id].Position(s.now), s.PositionNow(id); got != want {
								t.Fatalf("vehicle %d at %v: replayed %v, simulator %v", id, s.now, got, want)
							}
							want := trace.VehicleRecord{At: smp.at, Veh: id, Link: int(smp.link), Lane: int(smp.lane), Arc: smp.arc, Speed: smp.v}
							if checked >= len(recs) || recs[checked] != want {
								t.Fatalf("record %d does not hold vehicle %d's sample %+v", checked, id, want)
							}
							if k := seen[id]; k > 0 && samples[k-1].link == smp.link && samples[k-1].lane != smp.lane {
								laneChanges++
							}
							seen[id]++
							checked++
						}
					}
				}
				check()
				for s.now < w.horizon {
					s.step()
					check()
				}
				if checked != len(recs) {
					t.Fatalf("re-run recorded %d samples, decoded stream holds %d", checked, len(recs))
				}
				if laneChanges == 0 {
					t.Fatal("no lane change recorded")
				}
				if w.name != "demand" {
					return
				}
				parked, exited := 0, 0
				for id, spec := range w.specs {
					if spec.EnterAt > 0 {
						parked++
					}
					link, _, arc, v := state(s, id)
					if last := spec.Route[len(spec.Route)-1]; link == last && arc == w.net.link(last).Length() && v == 0 {
						exited++
					}
				}
				if parked == 0 || exited == 0 {
					t.Fatalf("demand world: %d parked entries, %d exits; want both", parked, exited)
				}
			})
		}
	}
}

// TestWorldTraceRoundTrip: a city world's serialized form is time-major
// with each instant's vehicles in ID order, holds every track's samples
// exactly and sums to the world's summary bit for bit.
func TestWorldTraceRoundTrip(t *testing.T) {
	for _, w := range oracleWorlds(t) {
		t.Run(w.name, func(t *testing.T) {
			s, err := New(Config{Network: w.net, Seed: 11}, w.specs)
			if err != nil {
				t.Fatal(err)
			}
			s.RunTo(w.horizon)
			recorded := s.World()
			col := recorded.Trace()
			for i := 1; i < len(col.Vehicles); i++ {
				if p, r := col.Vehicles[i-1], col.Vehicles[i]; r.At < p.At || (r.At == p.At && r.Veh <= p.Veh) {
					t.Fatalf("record %d (%v, vehicle %d) follows (%v, vehicle %d)", i, r.At, r.Veh, p.At, p.Veh)
				}
			}
			next := make(map[int]int)
			var sum summer
			for i, r := range col.Vehicles {
				tr := recorded.tracks[r.Veh]
				k := next[r.Veh]
				if k >= len(tr.samples) || tr.samples[k] != (sample{at: r.At, link: int32(r.Link), lane: int32(r.Lane), arc: r.Arc, v: r.Speed}) {
					t.Fatalf("record %d %+v is not vehicle %d's sample %d", i, r, r.Veh, k)
				}
				next[r.Veh]++
				sum.add(r.Speed)
			}
			for _, tr := range recorded.tracks {
				if next[tr.veh] != len(tr.samples) {
					t.Fatalf("vehicle %d: %d of %d samples serialized", tr.veh, next[tr.veh], len(tr.samples))
				}
			}
			if got, want := (&World{sum: sum}).Summary(), recorded.Summary(); !sameSummary(got, want) {
				t.Fatalf("records summarise to %+v, world %+v", got, want)
			}
		})
	}
}

// TestWorldFromTraceOrdersVehicles: a vehicle first sampled after a
// higher-numbered one still takes its place in each instant's ID order
// when the world is serialized.
func TestWorldFromTraceOrdersVehicles(t *testing.T) {
	late := &World{tracks: []track{
		{veh: 2, samples: []sample{{at: time.Second, arc: 7, v: 3}, {at: 3 * time.Second, arc: 13}}},
		{veh: 5, samples: []sample{{at: 0, link: 1, arc: 3, v: 1}, {at: time.Second, link: 1, arc: 4, v: 1}}},
	}}
	want := []trace.VehicleRecord{
		{At: 0, Veh: 5, Link: 1, Arc: 3, Speed: 1},
		{At: time.Second, Veh: 2, Link: 0, Arc: 7, Speed: 3},
		{At: time.Second, Veh: 5, Link: 1, Arc: 4, Speed: 1},
		{At: 3 * time.Second, Veh: 2, Link: 0, Arc: 13, Speed: 0},
	}
	if got := late.Trace().Vehicles; !reflect.DeepEqual(got, want) {
		t.Fatalf("Trace() = %+v, want %+v", got, want)
	}
}

func sameSummary(a, b Summary) bool {
	return math.Float64bits(a.MeanSpeedMPS) == math.Float64bits(b.MeanSpeedMPS) &&
		math.Float64bits(a.CrawlShare) == math.Float64bits(b.CrawlShare) && a.Samples == b.Samples
}

func TestReplayModelInterpolates(t *testing.T) {
	w := recordGridRun(t, 10*time.Second)
	m, err := w.Model(0)
	if err != nil {
		t.Fatal(err)
	}
	// Between samples the position moves smoothly: consecutive 20 ms
	// queries displace by at most v*dt plus a sample-boundary correction.
	prev := m.Position(2 * time.Second)
	for q := 2*time.Second + 20*time.Millisecond; q < 4*time.Second; q += 20 * time.Millisecond {
		p := m.Position(q)
		if d := p.Dist(prev); d > 1.5 {
			t.Fatalf("position jumped %v m in 20 ms at %v", d, q)
		}
		prev = p
	}
	// Queries before the first sample pin to the initial position.
	if got := m.Position(-time.Second); got != m.Position(0) {
		t.Fatalf("pre-history query = %v, want initial %v", got, m.Position(0))
	}
}

func TestReplayErrors(t *testing.T) {
	w := recordGridRun(t, 2*time.Second)
	if _, err := w.Model(12345); err == nil {
		t.Fatal("unknown vehicle accepted")
	}
}
