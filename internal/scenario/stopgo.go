package scenario

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// StopGoConfig parameterises the congested-highway scenario: a dense
// single-lane ring of IDM vehicles carrying a C-ARQ platoon past a
// roadside AP while a deterministic braking perturbation upstream
// launches a stop-and-go wave through the platoon mid-drive-thru. The
// platoon crawls, bunches and re-spreads inside and outside coverage —
// the regime delay-tolerant vehicular recovery is supposed to shine in.
type StopGoConfig struct {
	Common
	Rounds int
	// Vehicles is the total ring population including the platoon (the
	// rest of the ring is radio-silent background traffic).
	Vehicles int
	// RingM is the ring circumference.
	RingM    float64
	Duration time.Duration
	// PerturbAt/PerturbFor time the upstream braking perturbation that
	// launches the wave (a vehicle ~5 slots ahead of the platoon crawls
	// at 1.5 m/s for the window).
	PerturbAt, PerturbFor time.Duration
}

// DefaultStopGo returns a 72-vehicle, 1.8 km ring (25 m spacings — dense
// but flowing) with a 3-car platoon.
func DefaultStopGo() StopGoConfig {
	return StopGoConfig{
		Common: Common{
			Cars:             3,
			Seed:             1,
			PacketsPerSecond: 5,
			PayloadBytes:     1000,
			Coop:             true,
		},
		Rounds:     10,
		Vehicles:   72,
		RingM:      1800,
		Duration:   180 * time.Second,
		PerturbAt:  25 * time.Second,
		PerturbFor: 20 * time.Second,
	}
}

// Normalized validates the config and returns it unchanged.
func (cfg StopGoConfig) Normalized() (StopGoConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.Vehicles < cfg.Cars+8 {
		return cfg, fmt.Errorf("scenario: %d vehicles too few for a %d-car platoon", cfg.Vehicles, cfg.Cars)
	}
	if spacing := cfg.RingM / float64(cfg.Vehicles); spacing < 7 {
		return cfg, fmt.Errorf("scenario: ring spacing %.1f m leaves no room to move", spacing)
	}
	if cfg.Duration <= 0 {
		return cfg, fmt.Errorf("scenario: duration %v", cfg.Duration)
	}
	return cfg, nil
}

// StopGoResult is the study output: per-round protocol traces plus the
// summaries of the traffic streams that produced them.
type StopGoResult struct {
	Config  StopGoConfig
	CarIDs  []packet.NodeID
	Rounds  []*trace.Collector
	Traffic []TrafficSummary
}

// stopGoWorld builds the ring and its population. Vehicle IDs 0..Cars-1
// are the platoon, placed ~300 m upstream of the AP; background vehicles
// fill the remaining uniform slots ahead of it, so the perturbed vehicle
// (ID Cars+4, five slots ahead of the platoon head) launches its wave
// backwards into the platoon as it approaches coverage.
func stopGoWorld(cfg StopGoConfig, roundSeed int64) (*traffic.Network, []traffic.VehicleSpec, error) {
	net, err := traffic.NewRingRoad(traffic.RingSpec{
		CircumferenceM: cfg.RingM,
		Lanes:          1,
		LaneWidthM:     3.5,
		SpeedLimitMPS:  25,
	})
	if err != nil {
		return nil, nil, err
	}
	rng := sim.Stream(roundSeed, "stopgo-drivers")
	base := traffic.DefaultDriver()
	base.DesiredSpeedMPS = 22

	spacing := cfg.RingM / float64(cfg.Vehicles)
	// The platoon head sits 300 m before the AP (which is at arc 0, i.e.
	// arc RingM); slots count forward from it.
	headArc := cfg.RingM - 300
	arcAt := func(slot int) float64 {
		a := headArc + float64(slot)*spacing
		for a >= cfg.RingM {
			a -= cfg.RingM
		}
		for a < 0 {
			a += cfg.RingM
		}
		return a
	}
	specs := make([]traffic.VehicleSpec, cfg.Vehicles)
	for i := 0; i < cfg.Cars; i++ {
		// Platoon: head at slot 0, followers behind (negative slots).
		specs[i] = traffic.VehicleSpec{
			Driver:   jitterDriver(base, rng),
			Link:     0,
			ArcM:     arcAt(-i),
			SpeedMPS: 10,
		}
	}
	for i := cfg.Cars; i < cfg.Vehicles; i++ {
		// Background: slots 1, 2, ... ahead of the platoon head, which
		// wrap all the way around to behind the platoon tail.
		spec := traffic.VehicleSpec{
			Driver:   jitterDriver(base, rng),
			Link:     0,
			ArcM:     arcAt(i - cfg.Cars + 1),
			SpeedMPS: 10,
		}
		if i == cfg.Cars+4 {
			spec.Caps = []traffic.SpeedCap{{
				From: cfg.PerturbAt, To: cfg.PerturbAt + cfg.PerturbFor, MaxMPS: 1.5,
			}}
		}
		specs[i] = spec
	}
	return net, specs, nil
}

// stopGoAP returns the roadside AP position: 12 m off the outer lane
// edge at ring arc 0.
func stopGoAP(net *traffic.Network) geom.Point {
	l := net.Links[0]
	edge := l.LanePoint(0, 0)
	centre := l.Centre.At(0)
	out := edge.Sub(centre).Unit()
	return edge.Add(out.Scale(12))
}

// Name implements Family.
func (StopGoConfig) Name() string { return "stopgo" }

// NumRounds implements Family.
func (cfg StopGoConfig) NumRounds() int { return cfg.Rounds }

// Result implements Family.
func (cfg StopGoConfig) Result(rounds []Round) *StopGoResult {
	return &StopGoResult{
		Config:  cfg,
		CarIDs:  CarIDs(cfg.Cars),
		Rounds:  protocols(rounds),
		Traffic: summaries(rounds),
	}
}

// Round implements Family: the protocol trace and the summary of the
// traffic stream behind it.
func (cfg StopGoConfig) Round(round int) (Round, error) {
	r, _, err := cfg.round(round)
	return r, err
}

// round runs one round, returning it and its traffic stream.
func (cfg StopGoConfig) round(round int) (Round, *trace.Collector, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("stopgo-round-%d", round))
	net, specs, err := stopGoWorld(cfg, roundSeed)
	if err != nil {
		return Round{}, nil, err
	}
	tcfg := traffic.Config{Network: net, Seed: roundSeed}
	models, trafficStream, err := trafficModels(net, tcfg, specs, cfg.Duration, cfg.Cars)
	if err != nil {
		return Round{}, nil, err
	}

	result, err := cfg.run(roundSeed, Setup{
		Channel: highwayChannel(),
		MAC:     mac.DefaultConfig(),
		APs: []APSpec{{
			Position: stopGoAP(net),
			Config: apConfigWindow(APID, CarIDs(cfg.Cars), cfg.PacketsPerSecond,
				cfg.PayloadBytes, 1, 0, 0),
		}},
		Cars:     cfg.platoon(models),
		Duration: cfg.Duration,
	})
	if err != nil {
		return Round{}, nil, err
	}
	return Round{Protocol: result.Trace, TrafficSummary: SummarizeTraffic(trafficStream)}, trafficStream, nil
}
