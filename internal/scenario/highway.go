package scenario

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HighwayConfig parameterises the drive-thru scenario from the paper's
// motivation (reference [1]): a platoon passes a roadside AP on an open
// highway at speed. Sweeping SpeedMPS reproduces the loss-versus-speed
// relationship; enabling Coop shows how much of each pass C-ARQ recovers.
type HighwayConfig struct {
	Common
	Rounds   int
	SpeedMPS float64 // e.g. 8.3 (30 km/h) .. 33.3 (120 km/h)
	// RoadLengthM is the straight road segment; the AP sits at its
	// midpoint, roadsideAPSetbackM off the lane.
	RoadLengthM float64
}

// The open-road platoons (highway, twoway) keep highwayHeadwayM between
// cars; every roadside AP of the road families (highway, twoway,
// corridor) stands roadsideAPSetbackM off its lane; a drive-thru runs
// highwayCoopTime past the end of the road for the Cooperative-ARQ
// phase.
const (
	highwayHeadwayM    = 50.0
	roadsideAPSetbackM = 12.0
	highwayCoopTime    = 40 * time.Second
)

// DefaultHighway returns a 90 km/h three-car drive-thru.
func DefaultHighway() HighwayConfig {
	return HighwayConfig{
		Common: Common{
			Cars:             3,
			Seed:             1,
			PacketsPerSecond: 10,
			PayloadBytes:     1000,
			Coop:             true,
		},
		Rounds:      10,
		SpeedMPS:    25, // 90 km/h
		RoadLengthM: 2000,
	}
}

// highwayChannel models open-road propagation: log-distance with a
// ground-clutter exponent (the drive-thru measurements in the paper's
// reference [1] saw a usable window of a few hundred metres, not free
// space), light shadowing, and a strong line-of-sight Rician component.
// Reception is solid within ~130 m of the AP and dies quickly beyond.
func highwayChannel() radio.Config {
	return radio.Config{
		PathLossExponent: 3.0,
		TxPowerDBm:       10,
		NoiseFloorDBm:    -94,
		ShadowSigmaDB:    3,
		ShadowTau:        400 * time.Millisecond,
		FadingK:          6,
	}
}

// roadPlatoon builds an open-road platoon behind leader: every follower
// keeps headway with an eighth of it as per-round jitter and a tenth as
// a sinusoidal wobble of period wobble, drawn from the round's
// "platoon" stream.
func roadPlatoon(leader *mobility.PathFollower, cars int, headway float64, wobble time.Duration, roundSeed int64) (*mobility.Platoon, error) {
	profiles := make([]mobility.DriverProfile, cars)
	profiles[0] = mobility.DriverProfile{Name: "car1"}
	for i := 1; i < cars; i++ {
		profiles[i] = mobility.DriverProfile{
			Name:           fmt.Sprintf("car%d", i+1),
			HeadwayM:       headway,
			HeadwayJitterM: headway / 8,
			WobbleM:        headway / 10,
			WobblePeriod:   wobble,
		}
	}
	return mobility.NewPlatoon(leader, profiles, sim.Stream(roundSeed, "platoon"))
}

// HighwayResult is the drive-thru experiment output.
type HighwayResult struct {
	Config HighwayConfig
	Rounds []*trace.Collector
	CarIDs []packet.NodeID
}

// Normalized validates the config and returns it unchanged.
func (cfg HighwayConfig) Normalized() (HighwayConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.SpeedMPS <= 0 {
		return cfg, fmt.Errorf("scenario: speed %v", cfg.SpeedMPS)
	}
	return cfg, nil
}

// Name implements Family.
func (HighwayConfig) Name() string { return "highway" }

// NumRounds implements Family.
func (cfg HighwayConfig) NumRounds() int { return cfg.Rounds }

// Result implements Family.
func (cfg HighwayConfig) Result(rounds []Round) *HighwayResult {
	return &HighwayResult{Config: cfg, Rounds: protocols(rounds), CarIDs: CarIDs(cfg.Cars)}
}

// Round implements Family: one drive-thru pass.
func (cfg HighwayConfig) Round(round int) (Round, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("hwy-round-%d", round))
	carIDs := CarIDs(cfg.Cars)

	road := mobility.StraightHighway(cfg.RoadLengthM)
	leader := mobility.MustPathFollower(mobility.FollowerConfig{
		Path:     road,
		SpeedMPS: cfg.SpeedMPS,
	})
	platoon, err := roadPlatoon(leader, cfg.Cars, highwayHeadwayM, 20*time.Second, roundSeed)
	if err != nil {
		return Round{}, err
	}

	passTime := time.Duration(cfg.RoadLengthM / cfg.SpeedMPS * float64(time.Second))
	duration := passTime + highwayCoopTime

	result, err := cfg.run(roundSeed, Setup{
		Channel: highwayChannel(),
		MAC:     mac.DefaultConfig(),
		APs: []APSpec{{
			Position: geom.Point{X: cfg.RoadLengthM / 2, Y: roadsideAPSetbackM},
			Config: apConfigWindow(APID, carIDs, cfg.PacketsPerSecond,
				cfg.PayloadBytes, 1, 0, passTime),
		}},
		Cars:     cfg.platoon(platoon.Cars()),
		Duration: duration,
	})
	if err != nil {
		return Round{}, err
	}
	return Round{Protocol: result.Trace}, nil
}
