package traffic

import (
	"bytes"
	"testing"
	"time"

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

// TestReplayMatchesLiveExactly is the record-then-replay determinism
// contract: write the stream through JSONL (the export format),
// read it back, and check replayed models return bit-identical positions
// to the live models at arbitrary query times.
func TestReplayMatchesLiveExactly(t *testing.T) {
	g, s, rec := recordGridRun(t, 40*time.Second)

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	col, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplay(g.Network, col)
	if err != nil {
		t.Fatal(err)
	}
	if ids := rp.VehicleIDs(); len(ids) != s.NumVehicles() {
		t.Fatalf("replay has %d vehicles, want %d", len(ids), s.NumVehicles())
	}
	for id := 0; id < s.NumVehicles(); id++ {
		live := s.Model(id)
		replayed, err := rp.Model(id)
		if err != nil {
			t.Fatal(err)
		}
		// Probe off-sample times (137 ms steps) and exact sample times.
		for q := time.Duration(0); q <= 40*time.Second; q += 137 * time.Millisecond {
			a, b := live.Position(q), replayed.Position(q)
			if a != b {
				t.Fatalf("vehicle %d at %v: live %v vs replay %v", id, q, a, b)
			}
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
