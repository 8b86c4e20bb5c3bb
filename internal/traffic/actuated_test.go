package traffic

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/trace"
)

// signalGreen reports whether link saw green on the simulation's last
// tick (on its initial displays before the first): the per-tick green
// table every car-following decision of that tick read.
func signalGreen(s *Simulation, link LinkID) bool { return s.green[link] }

// actuatedTestWorld builds a 3x3 actuated grid with a deterministic
// vehicle population dense enough to occupy stop-line detectors.
func actuatedTestWorld(t *testing.T, ap ActuatedParams, vehicles int) (*GridNet, []VehicleSpec) {
	t.Helper()
	g, err := NewGridNetwork(GridSpec{
		Rows: 3, Cols: 3, BlockM: 120, Lanes: 2, LaneWidthM: 3.2,
		SpeedLimitMPS: 14, Green: 20 * time.Second, AllRed: 4 * time.Second,
		Actuated: &ap,
	})
	if err != nil {
		t.Fatal(err)
	}
	var specs []VehicleSpec
	for i := 0; i < vehicles; i++ {
		l := g.Links[i%len(g.Links)]
		arc := 15 + float64((i/len(g.Links))%3)*35
		if arc >= l.Length()-6 {
			arc = l.Length() - 6
		}
		specs = append(specs, VehicleSpec{
			Driver: DefaultDriver(),
			Link:   l.ID,
			Lane:   (i / len(g.Links)) % 2,
			ArcM:   arc,
		})
	}
	return g, specs
}

// TestActuatedGreenBounds is the property test of the issue's acceptance
// criteria: under queue-actuated control, every completed green interval
// of every signalized link lasts at least MinGreen and NEVER exceeds
// MaxGreen (the configured maximum extension), to one-tick resolution.
// The load is chosen so both controller behaviours actually occur:
// presence extends some greens past MinGreen, and gap-outs end some
// greens before MaxGreen.
func TestActuatedGreenBounds(t *testing.T) {
	ap := ActuatedParams{
		MinGreen:  4 * time.Second,
		MaxGreen:  12 * time.Second,
		AllRed:    2 * time.Second,
		DetectorM: 30,
	}
	g, specs := actuatedTestWorld(t, ap, 48)
	s, err := New(Config{Network: g.Network, Seed: 9}, specs)
	if err != nil {
		t.Fatal(err)
	}

	var signalled []LinkID
	for _, l := range g.Links {
		if l.Signal != NoSignal {
			signalled = append(signalled, l.ID)
		}
	}
	if len(signalled) == 0 {
		t.Fatal("actuated grid has no signalized links")
	}

	tick := 100 * time.Millisecond
	greenSince := make(map[LinkID]time.Duration)
	var greens []time.Duration
	for now := time.Duration(0); now < 5*time.Minute; now += tick {
		for _, id := range signalled {
			green := signalGreen(s, id)
			started, was := greenSince[id]
			switch {
			case green && !was:
				greenSince[id] = now
			case !green && was:
				greens = append(greens, now-started)
				delete(greenSince, id)
			}
		}
		s.Step()
	}
	if len(greens) < 10 {
		t.Fatalf("only %d completed greens observed; the controller is stuck", len(greens))
	}
	extended, gappedOut := false, false
	for _, d := range greens {
		if d > ap.MaxGreen+tick {
			t.Fatalf("green lasted %v, above the configured max %v", d, ap.MaxGreen)
		}
		if d < ap.MinGreen-tick {
			t.Fatalf("green lasted %v, below the guaranteed min %v", d, ap.MinGreen)
		}
		if d > ap.MinGreen+tick {
			extended = true
		}
		if d < ap.MaxGreen-tick {
			gappedOut = true
		}
	}
	if !extended {
		t.Fatal("no green was ever extended past MinGreen; detectors never fired")
	}
	if !gappedOut {
		t.Fatal("no green ever gapped out before MaxGreen; the controller just maxes out")
	}
}

// TestActuatedDeterminism pins the controller into the package's
// bit-reproducibility contract: same Config and specs, byte-identical
// recorded streams.
func TestActuatedDeterminism(t *testing.T) {
	run := func() []byte {
		ap := DefaultActuatedParams()
		g, specs := actuatedTestWorld(t, ap, 36)
		rec := &trace.Collector{}
		s, err := New(Config{Network: g.Network, Seed: 4, Recorder: rec}, specs)
		if err != nil {
			t.Fatal(err)
		}
		s.RunTo(2 * time.Minute)
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("actuated runs are not bit-reproducible")
	}
}

// TestActuatedDiffersFromFixed confirms the controller actually changes
// the dynamics: the same world under fixed cycles records a different
// stream.
func TestActuatedDiffersFromFixed(t *testing.T) {
	run := func(actuated bool) []byte {
		spec := GridSpec{
			Rows: 3, Cols: 3, BlockM: 120, Lanes: 2, LaneWidthM: 3.2,
			SpeedLimitMPS: 14, Green: 20 * time.Second, AllRed: 4 * time.Second,
		}
		if actuated {
			ap := DefaultActuatedParams()
			spec.Actuated = &ap
		}
		g, err := NewGridNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		var specs []VehicleSpec
		for i := 0; i < 36; i++ {
			l := g.Links[i%len(g.Links)]
			specs = append(specs, VehicleSpec{Driver: DefaultDriver(), Link: l.ID, ArcM: 20})
		}
		rec := &trace.Collector{}
		s, err := New(Config{Network: g.Network, Seed: 4, Recorder: rec}, specs)
		if err != nil {
			t.Fatal(err)
		}
		s.RunTo(2 * time.Minute)
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if bytes.Equal(run(true), run(false)) {
		t.Fatal("actuated control recorded the same stream as fixed cycles")
	}
}

func TestActuatedParamsValidation(t *testing.T) {
	cases := []ActuatedParams{
		{MinGreen: 0, MaxGreen: 10 * time.Second, DetectorM: 30},
		{MinGreen: 10 * time.Second, MaxGreen: 5 * time.Second, DetectorM: 30},
		{MinGreen: 5 * time.Second, MaxGreen: 10 * time.Second, DetectorM: 0},
		{MinGreen: 5 * time.Second, MaxGreen: 10 * time.Second, AllRed: -time.Second, DetectorM: 30},
	}
	for i, ap := range cases {
		ap := ap
		if _, err := NewGridNetwork(GridSpec{
			Rows: 2, Cols: 2, BlockM: 120, Lanes: 1, LaneWidthM: 3.2,
			SpeedLimitMPS: 14, Green: 20 * time.Second, AllRed: 4 * time.Second,
			Actuated: &ap,
		}); err == nil {
			t.Fatalf("case %d: invalid actuated params accepted: %+v", i, ap)
		}
	}
}
