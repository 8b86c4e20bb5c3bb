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

// recordGridRun steps a small grid population and returns its network
// and recorded world.
func recordGridRun(t *testing.T, d time.Duration) (*GridNet, *World) {
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
	return g, s.World()
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
// oracle: record a world, round-trip it through its serialized form in
// each trace codec and bind it again, then step the same world again and
// check that at every tick that records a sample, each recorded
// vehicle's model returns exactly the simulator's state (PositionNow).
// It also checks the worlds exercise parked entries, route-end exits and
// lane changes, so those sample paths are covered.
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
		recorded := s.World()
		for _, codec := range codecs {
			t.Run(w.name+"/"+codec.name, func(t *testing.T) {
				col, err := codec.roundTrip(recorded.Trace())
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := WorldFromTrace(col)
				if err != nil {
					t.Fatal(err)
				}
				world, err := decoded.Bind(w.net)
				if err != nil {
					t.Fatal(err)
				}
				if len(world.tracks) != len(w.specs) {
					t.Fatalf("world has %d vehicles, want %d", len(world.tracks), len(w.specs))
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
				if checked != len(col.Vehicles) {
					t.Fatalf("re-run recorded %d samples, decoded stream holds %d", checked, len(col.Vehicles))
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

// TestWorldTraceRoundTrip: a city world survives World -> Collector ->
// World bit for bit, with the same summary, and its serialized form is
// time-major with each instant's vehicles in ID order.
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
			decoded, err := WorldFromTrace(col)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(decoded.tracks, recorded.tracks) {
				t.Fatal("decoded tracks differ from the recording")
			}
			if got, want := decoded.Summary(), recorded.Summary(); !sameSummary(got, want) || want.Samples != len(col.Vehicles) {
				t.Fatalf("decoded summary %+v, recorded %+v over %d records", got, want, len(col.Vehicles))
			}
			if again := decoded.Trace(); !reflect.DeepEqual(again, col) {
				t.Fatal("decoded world serializes differently")
			}
		})
	}
}

func sameSummary(a, b Summary) bool {
	return math.Float64bits(a.MeanSpeedMPS) == math.Float64bits(b.MeanSpeedMPS) &&
		math.Float64bits(a.CrawlShare) == math.Float64bits(b.CrawlShare) && a.Samples == b.Samples
}

// TestWorldFromTraceOrdersVehicles: a vehicle first sampled after a
// higher-numbered one still gets its track in ID order, and the merge
// writes the stream back in its time-major order.
func TestWorldFromTraceOrdersVehicles(t *testing.T) {
	col := &trace.Collector{Vehicles: []trace.VehicleRecord{
		{At: 0, Veh: 5, Link: 1, Arc: 3, Speed: 1},
		{At: time.Second, Veh: 2, Link: 0, Arc: 7, Speed: 3},
		{At: time.Second, Veh: 5, Link: 1, Arc: 4, Speed: 1},
		{At: 3 * time.Second, Veh: 2, Link: 0, Arc: 13, Speed: 0},
	}}
	w, err := WorldFromTrace(col)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.tracks) != 2 || w.tracks[0].veh != 2 || w.tracks[1].veh != 5 {
		t.Fatalf("tracks %+v, want vehicles 2 and 5 in order", w.tracks)
	}
	if got := w.Trace(); !reflect.DeepEqual(got, col) {
		t.Fatalf("Trace() = %+v, want %+v", got.Vehicles, col.Vehicles)
	}
	if sum := w.Summary(); sum.Samples != 4 || sum.MeanSpeedMPS != 1.25 || sum.CrawlShare != 0.75 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestReplayModelInterpolates(t *testing.T) {
	_, w := recordGridRun(t, 10*time.Second)
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
	g, w := recordGridRun(t, 2*time.Second)
	decode := func(recs ...trace.VehicleRecord) error {
		_, err := WorldFromTrace(&trace.Collector{Vehicles: recs})
		return err
	}
	if decode() == nil {
		t.Fatal("empty stream accepted")
	}
	if decode(trace.VehicleRecord{Veh: 0, Lane: -1}) == nil {
		t.Fatal("negative lane accepted")
	}
	if decode(trace.VehicleRecord{At: time.Second, Veh: 0}, trace.VehicleRecord{At: 0, Veh: 0}) == nil {
		t.Fatal("non-chronological stream accepted")
	}
	if decode(trace.VehicleRecord{Veh: 1}, trace.VehicleRecord{Veh: 0}) == nil {
		t.Fatal("an instant's vehicles out of ID order accepted")
	}
	if decode(trace.VehicleRecord{Veh: 0}, trace.VehicleRecord{Veh: 0}) == nil {
		t.Fatal("a vehicle sampled twice at one instant accepted")
	}
	if _, err := WorldFromTrace(&trace.Collector{Completed: []trace.CompleteRecord{{}}, Vehicles: []trace.VehicleRecord{{}}}); err == nil {
		t.Fatal("stream with protocol records accepted")
	}

	unbound, err := WorldFromTrace(w.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unbound.Model(0); err == nil {
		t.Fatal("unbound world handed out a model")
	}
	if _, err := unbound.Bind(nil); err == nil {
		t.Fatal("nil network accepted")
	}
	for name, rec := range map[string]trace.VehicleRecord{
		"link": {Veh: 0, Link: 999},
		"lane": {Veh: 0, Link: 0, Lane: 99},
	} {
		bad, err := WorldFromTrace(&trace.Collector{Vehicles: []trace.VehicleRecord{rec}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bad.Bind(g.Network); err == nil {
			t.Fatalf("out-of-range %s accepted", name)
		}
	}
	if _, err := w.Model(12345); err == nil {
		t.Fatal("unknown vehicle accepted")
	}
}
