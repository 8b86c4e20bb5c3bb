package traffic

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mobility"
	"repro/internal/trace"
)

// recordGridRun steps a small grid population with recording on and
// returns the simulation and its recorded stream.
func recordGridRun(t *testing.T, d time.Duration) (*GridNet, *Simulation, *trace.Collector) {
	t.Helper()
	g, err := NewGridNetwork(DefaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Collector{}
	var specs []VehicleSpec
	for i := 0; i < 15; i++ {
		specs = append(specs, VehicleSpec{
			Driver: DefaultDriver(),
			Link:   LinkID(i % len(g.Links)),
			ArcM:   float64(15 + i*3),
		})
	}
	s, err := New(Config{Network: g.Network, Seed: 11, Recorder: rec}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(d)
	return g, s, rec
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
	g, err := NewGridNetwork(DefaultGridSpec())
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
// oracle: record a world, round-trip its stream through each trace codec,
// then step the same world again and check that at every tick that
// records a sample, each recorded vehicle's replayed model returns
// exactly the simulator's state (PositionNow). It also checks the worlds
// exercise parked entries, route-end exits and lane changes, so those
// sample paths are covered.
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
		rec := &trace.Collector{}
		s, err := New(Config{Network: w.net, Seed: 11, Recorder: rec}, w.specs)
		if err != nil {
			t.Fatal(err)
		}
		s.RunTo(w.horizon)
		for _, codec := range codecs {
			t.Run(w.name+"/"+codec.name, func(t *testing.T) {
				col, err := codec.roundTrip(rec)
				if err != nil {
					t.Fatal(err)
				}
				rp, err := NewReplay(w.net, col)
				if err != nil {
					t.Fatal(err)
				}
				if ids := rp.VehicleIDs(); len(ids) != len(w.specs) {
					t.Fatalf("replay has %d vehicles, want %d", len(ids), len(w.specs))
				}
				models := make([]mobility.Model, len(w.specs))
				for id := range models {
					if models[id], err = rp.Model(id); err != nil {
						t.Fatal(err)
					}
				}

				live := &trace.Collector{}
				s, err := New(Config{Network: w.net, Seed: 11, Recorder: live}, w.specs)
				if err != nil {
					t.Fatal(err)
				}
				var checked, laneChanges int
				last := make(map[int]trace.VehicleRecord)
				check := func() {
					for _, r := range live.Vehicles[checked:] {
						if got, want := models[r.Veh].Position(s.Now()), s.PositionNow(r.Veh); got != want {
							t.Fatalf("vehicle %d at %v: replayed %v, simulator %v", r.Veh, s.Now(), got, want)
						}
						if p, ok := last[r.Veh]; ok && p.Link == r.Link && p.Lane != r.Lane {
							laneChanges++
						}
						last[r.Veh] = r
					}
					checked = len(live.Vehicles)
				}
				check()
				for s.Now() < w.horizon {
					s.Step()
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
					link, _, arc, v := s.State(id)
					if last := spec.Route[len(spec.Route)-1]; link == last && arc == w.net.Link(last).Length() && v == 0 {
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

func TestReplayModelInterpolates(t *testing.T) {
	g, s, rec := recordGridRun(t, 10*time.Second)
	rp, err := NewReplay(g.Network, rec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rp.Model(0)
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
	_ = s
}

func TestReplayErrors(t *testing.T) {
	g, _, rec := recordGridRun(t, 2*time.Second)
	if _, err := NewReplay(g.Network, &trace.Collector{}); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := NewReplay(nil, rec); err == nil {
		t.Fatal("nil network accepted")
	}
	bad := &trace.Collector{}
	bad.OnVehicle(trace.VehicleRecord{Veh: 0, Link: 999})
	if _, err := NewReplay(g.Network, bad); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	lane := &trace.Collector{}
	lane.OnVehicle(trace.VehicleRecord{Veh: 0, Link: 0, Lane: 99})
	if _, err := NewReplay(g.Network, lane); err == nil {
		t.Fatal("out-of-range lane accepted")
	}
	backwards := &trace.Collector{}
	backwards.OnVehicle(trace.VehicleRecord{At: time.Second, Veh: 0})
	backwards.OnVehicle(trace.VehicleRecord{At: 0, Veh: 0})
	if _, err := NewReplay(g.Network, backwards); err == nil {
		t.Fatal("non-chronological stream accepted")
	}
	rp, err := NewReplay(g.Network, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Model(12345); err == nil {
		t.Fatal("unknown vehicle accepted")
	}
}
