package scenario

import (
	"fmt"
	"time"

	"repro/internal/ap"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CorridorConfig parameterises the paper's Figure 1 system picture: a
// road with several Infostations separated by dark gaps. The platoon
// drives past AP1, cooperates in the gap, reaches AP2, and so on — the
// full Reception -> Cooperative-ARQ -> Reception cycle, repeated.
type CorridorConfig struct {
	Common
	Rounds   int
	SpeedMPS float64
	// APCount and APSpacingM place the Infostations along the road,
	// starting at x = APSpacingM/2, each roadsideAPSetbackM off the lane.
	APCount    int
	APSpacingM float64
}

// DefaultCorridor returns a two-Infostation corridor at urban speed.
func DefaultCorridor() CorridorConfig {
	return CorridorConfig{
		Common: Common{
			Cars:             3,
			Seed:             1,
			PacketsPerSecond: 5,
			PayloadBytes:     1000,
			Coop:             true,
		},
		Rounds:     10,
		SpeedMPS:   11, // ~40 km/h arterial road
		APCount:    2,
		APSpacingM: 700,
	}
}

// corridorChannel: arterial-road propagation — harsher than open highway,
// kinder than the urban canyon.
func corridorChannel() radio.Config {
	return radio.Config{
		PathLossExponent: 3.2,
		TxPowerDBm:       13,
		NoiseFloorDBm:    -94,
		ShadowSigmaDB:    4,
		ShadowTau:        600 * time.Millisecond,
		FadingK:          2,
	}
}

// CorridorResult is the multi-Infostation experiment output.
type CorridorResult struct {
	Config CorridorConfig
	Rounds []*trace.Collector
	CarIDs []packet.NodeID
	// RoadLengthM is the derived road length.
	RoadLengthM float64
}

// Normalized validates the config and returns it unchanged.
func (cfg CorridorConfig) Normalized() (CorridorConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.APCount <= 0 {
		return cfg, fmt.Errorf("scenario: ap count %d", cfg.APCount)
	}
	if cfg.SpeedMPS <= 0 {
		return cfg, fmt.Errorf("scenario: speed %v", cfg.SpeedMPS)
	}
	return cfg, nil
}

// corridorRoadLength returns the road length the config implies.
func corridorRoadLength(cfg CorridorConfig) float64 {
	return float64(cfg.APCount) * cfg.APSpacingM
}

// Name implements Family.
func (CorridorConfig) Name() string { return "corridor" }

// NumRounds implements Family.
func (cfg CorridorConfig) NumRounds() int { return cfg.Rounds }

// Result implements Family.
func (cfg CorridorConfig) Result(rounds []Round) *CorridorResult {
	return &CorridorResult{
		Config:      cfg,
		Rounds:      protocols(rounds),
		CarIDs:      CarIDs(cfg.Cars),
		RoadLengthM: corridorRoadLength(cfg),
	}
}

// Round implements Family: one corridor drive. The Infostations
// broadcast a synchronised carousel: every AP transmits the same numbered
// stream on the same schedule (as a backhaul-fed deployment would), so a
// car hears early sequences around AP1, loses the mid-gap range unless a
// platoon member caught it, and picks the stream back up around AP2. The
// interesting quantity is how much of the *receivable* stream (anything
// any platoon member heard) each car ends up holding — cooperation closes
// most of that gap in the dark stretch between the stations.
func (cfg CorridorConfig) Round(round int, col *trace.Collector) (Round, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("corridor-round-%d", round))
	carIDs := CarIDs(cfg.Cars)
	roadLen := corridorRoadLength(cfg)

	road := mobility.StraightHighway(roadLen)
	leader := mobility.MustPathFollower(mobility.FollowerConfig{
		Path:     road,
		SpeedMPS: cfg.SpeedMPS,
	})
	platoon, err := roadPlatoon(leader, cfg.Cars, urbanHeadwayM, 30*time.Second, roundSeed)
	if err != nil {
		return Round{}, err
	}

	passTime := time.Duration(roadLen / cfg.SpeedMPS * float64(time.Second))
	duration := passTime + 30*time.Second

	aps := make([]APSpec, cfg.APCount)
	for i := range aps {
		aps[i] = APSpec{
			Position: geom.Point{
				X: cfg.APSpacingM/2 + float64(i)*cfg.APSpacingM,
				Y: roadsideAPSetbackM,
			},
			Config: ap.Config{
				ID:               APID + packet.NodeID(i),
				Flows:            append([]packet.NodeID(nil), carIDs...),
				PacketsPerSecond: cfg.PacketsPerSecond,
				PayloadBytes:     cfg.PayloadBytes,
				Repeats:          1,
				Stop:             passTime,
				Start:            time.Millisecond,
			},
		}
	}

	_, err = cfg.run(roundSeed, col, Setup{
		Channel:  corridorChannel(),
		MAC:      mac.DefaultConfig(),
		APs:      aps,
		Cars:     cfg.platoon(platoon.Cars()),
		Duration: duration,
	})
	if err != nil {
		return Round{}, err
	}
	return Round{Protocol: col}, nil
}
