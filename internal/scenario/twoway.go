package scenario

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TwoWayConfig parameterises the two-way highway extension: a platoon
// drives past a roadside AP, turns at the end of the road and comes back
// on the opposite lane. A stream of relay cars follows it through AP
// coverage on the outbound lane, each opportunistically buffering the
// platoon's flows; on the return leg those relays are opposing traffic,
// streaming past the platoon head-on while it runs its Cooperative-ARQ
// phase, and serve REQUESTs during the short encounter windows.
//
// This is the one geometry where a pull-based C-ARQ can exploit opposing
// traffic: a vehicle crossing the platoon must already hold the data
// (have passed the AP) while the platoon is already recovering (past its
// own pass) — which head-on traffic on a straight road can never satisfy,
// but out-and-back traffic can.
type TwoWayConfig struct {
	Common
	Rounds int
	// RelayCars is the number of trailing/opposing relay vehicles; zero
	// isolates the platoon-only baseline.
	RelayCars int
	// CycleBlocks makes the AP broadcast a fixed carousel of this many
	// blocks per flow instead of an endless stream. The carousel is what
	// makes opposing traffic useful to a pull-based protocol: relay cars
	// traverse coverage later than the platoon, so on an endless stream
	// they would only ever hold sequence numbers from after the
	// platoon's own window.
	CycleBlocks uint32
	// RoadLengthM is the one-way road length; the AP sits at its
	// midpoint, roadsideAPSetbackM off the outbound lane.
	RoadLengthM float64
}

// Two-way geometry. The platoon and the relays drive twoWaySpeedMPS;
// relay 0 trails the platoon's tail by relayLeadM and later relays
// follow relaySpacingM apart — the lead keeps relays out of radio range
// until the head-on return. laneGapM separates the two lanes.
const (
	twoWaySpeedMPS = 25.0
	relayLeadM     = 350.0
	relaySpacingM  = 150.0
	laneGapM       = 6.0
)

// DefaultTwoWay returns a 90 km/h three-car platoon with four relay cars.
func DefaultTwoWay() TwoWayConfig {
	return TwoWayConfig{
		Common: Common{
			Cars:             3,
			Seed:             1,
			PacketsPerSecond: 10,
			PayloadBytes:     1000,
			Coop:             true,
		},
		Rounds:      8,
		RelayCars:   4,
		CycleBlocks: 300,
		RoadLengthM: 2400,
	}
}

// Normalized validates the config and returns it unchanged.
func (cfg TwoWayConfig) Normalized() (TwoWayConfig, error) {
	if cfg.Rounds <= 0 || cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: rounds=%d cars=%d", cfg.Rounds, cfg.Cars)
	}
	if cfg.RelayCars < 0 {
		return cfg, fmt.Errorf("scenario: relay cars %d", cfg.RelayCars)
	}
	if cfg.RoadLengthM <= 0 {
		return cfg, fmt.Errorf("scenario: road length %v", cfg.RoadLengthM)
	}
	return cfg, nil
}

// TwoWayResult is the two-way highway experiment output.
type TwoWayResult struct {
	Config   TwoWayConfig
	Rounds   []*trace.Collector
	CarIDs   []packet.NodeID
	RelayIDs []packet.NodeID
}

// twoWayRelayIDs returns the relay vehicle node IDs for cfg.
func twoWayRelayIDs(n int) []packet.NodeID {
	ids := make([]packet.NodeID, n)
	for i := range ids {
		ids[i] = RelayID + packet.NodeID(i)
	}
	return ids
}

// twoWayPath is the platoon's out-and-back circuit: east on the outbound
// lane, a jog across the median, and west on the return lane.
func twoWayPath(cfg TwoWayConfig) *geom.Polyline {
	return geom.MustPolyline(
		geom.Point{X: 0, Y: 0},
		geom.Point{X: cfg.RoadLengthM, Y: 0},
		geom.Point{X: cfg.RoadLengthM, Y: laneGapM},
		geom.Point{X: 0, Y: laneGapM},
	)
}

// Name implements Family.
func (TwoWayConfig) Name() string { return "twoway" }

// NumRounds implements Family.
func (cfg TwoWayConfig) NumRounds() int { return cfg.Rounds }

// Result implements Family.
func (cfg TwoWayConfig) Result(rounds []Round) *TwoWayResult {
	return &TwoWayResult{
		Config:   cfg,
		Rounds:   protocols(rounds),
		CarIDs:   CarIDs(cfg.Cars),
		RelayIDs: twoWayRelayIDs(cfg.RelayCars),
	}
}

// Round implements Family: one out-and-back drive.
func (cfg TwoWayConfig) Round(round int) (Round, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("twoway-round-%d", round))
	carIDs := CarIDs(cfg.Cars)

	circuit := twoWayPath(cfg)
	leader := mobility.MustPathFollower(mobility.FollowerConfig{
		Path:     circuit,
		SpeedMPS: twoWaySpeedMPS,
	})
	platoon, err := roadPlatoon(leader, cfg.Cars, highwayHeadwayM, 20*time.Second, roundSeed)
	if err != nil {
		return Round{}, err
	}

	// Relay traffic drives the outbound lane only. One shared path starts
	// far enough west that every relay has a non-negative start arc; relay
	// 0 trails the platoon tail by relayLeadM, later relays follow at
	// relaySpacingM. Relays park at the road end after the platoon has
	// streamed past them on the return lane.
	relayIDs := twoWayRelayIDs(cfg.RelayCars)
	platoonTail := highwayHeadwayM * float64(cfg.Cars-1)
	backlog := relayLeadM + relaySpacingM*float64(cfg.RelayCars-1)
	var relays []mobility.Model
	if cfg.RelayCars > 0 {
		relayPath := geom.MustPolyline(
			geom.Point{X: -(platoonTail + backlog), Y: 0},
			geom.Point{X: cfg.RoadLengthM, Y: 0},
		)
		for j := 0; j < cfg.RelayCars; j++ {
			relays = append(relays, mobility.MustPathFollower(mobility.FollowerConfig{
				Path:     relayPath,
				StartArc: relaySpacingM * float64(cfg.RelayCars-1-j),
				SpeedMPS: twoWaySpeedMPS,
			}))
		}
	}

	// The AP serves the outbound pass: it stops transmitting once the
	// platoon reaches the turn, by when the whole relay stream has been
	// through coverage. The run ends when the leader is back at the AP's
	// abscissa on the return lane — past the last head-on encounter.
	apStop := timeToArc(leader, cfg.RoadLengthM)
	duration := timeToArc(leader, cfg.RoadLengthM+laneGapM+cfg.RoadLengthM/2)

	cars := cfg.platoon(platoon.Cars())
	for j, id := range relayIDs {
		// Relays have no flow of their own; BufferForAll makes them keep
		// any overheard DATA so they can serve REQUESTs for every flow.
		rcfg := cfg.carqConfig(id)
		rcfg.BufferForAll = true
		rcfg.KnownFirstSeq = 0
		cars = append(cars, CarSpec{ID: id, Mobility: relays[j], Carq: rcfg})
	}

	apCfg := apConfigWindow(APID, carIDs, cfg.PacketsPerSecond,
		cfg.PayloadBytes, 1, 0, apStop)
	apCfg.CycleLength = cfg.CycleBlocks
	result, err := cfg.run(roundSeed, Setup{
		Channel: highwayChannel(),
		MAC:     mac.DefaultConfig(),
		APs: []APSpec{{
			Position: geom.Point{X: cfg.RoadLengthM / 2, Y: -roadsideAPSetbackM},
			Config:   apCfg,
		}},
		Cars:     cars,
		Duration: duration,
	})
	if err != nil {
		return Round{}, err
	}
	return Round{Protocol: result.Trace}, nil
}
