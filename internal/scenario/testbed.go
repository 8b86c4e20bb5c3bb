package scenario

import (
	"fmt"
	"time"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestbedConfig parameterises the paper's urban experiment (Figure 2): a
// rectangular city-block loop, one building-mounted AP on the main street,
// and a platoon of cars circling the block.
type TestbedConfig struct {
	Common
	// Rounds is the number of independent laps (the paper ran 30).
	Rounds int
	// SpeedMPS is the platoon's base speed (the paper's ~20 km/h).
	SpeedMPS float64
	// BatchRequests enables the batched-REQUEST optimisation (ablation).
	BatchRequests bool
	// Selection overrides the cooperator-selection policy (nil: all).
	Selection carq.Selection
	// CandidateTTL overrides the cooperator staleness timeout
	// (carq.Config.CandidateTTL; zero keeps the protocol default).
	CandidateTTL time.Duration
	// APRepeats enables the AP-side retransmission baseline (>= 1).
	APRepeats int
	// AdaptiveAPRepeats, when positive, replaces the static repeat count
	// with the cooperator-adaptive policy (ceiling = this value) — the
	// retransmission scheme the paper's §3.2 leaves as future work.
	AdaptiveAPRepeats int
	// FrameCombining enables the C-ARQ/FC soft-combining extension on
	// every car (reference [12] of the paper).
	FrameCombining bool
	// Modulation is the PHY rate (the paper fixed 1 Mb/s).
	Modulation radio.Modulation
	// Factory overrides the protocol run by every car (nil: C-ARQ with
	// the settings above). Used by the epidemic baseline.
	Factory NodeFactory
}

// DefaultTestbed returns the calibrated reproduction of the paper's
// experiment. The platoon of 3 runs the paper's 5 x 1000 B ICMP stream
// per car.
func DefaultTestbed() TestbedConfig {
	return TestbedConfig{
		Common: Common{
			Cars:             3,
			Seed:             1,
			PacketsPerSecond: 5,
			PayloadBytes:     1000,
			Coop:             true,
		},
		Rounds:     30,
		SpeedMPS:   5.6, // ~20 km/h
		APRepeats:  1,
		Modulation: radio.DSSS1Mbps,
	}
}

// Urban block geometry, metres. The loop runs counter-clockwise from the
// south-west corner; the AP sits mid-way along the south (main) street,
// set back from the kerb like the paper's first-floor office antenna. The
// block's buildings (the interior rectangle) obstruct propagation, so AP
// coverage is confined to the main street — the geometry behind the
// paper's clean coverage window and dark area.
const (
	blockWidth  = 150.0
	blockHeight = 100.0
	loopLen     = 2 * (blockWidth + blockHeight)

	// buildingMargin is the street width between the driving line and
	// the building faces.
	buildingMargin = 14.0
	// buildingLossDB is the penetration loss of the block's buildings.
	buildingLossDB = 35.0
	// coverageSpillM approximates how far coverage spills past the main
	// street corners, used when sizing round durations.
	coverageSpillM = 25.0

	// cornerC is the arc position of the paper's corner "C" — the corner
	// at the east end of the main street where car 3 closed up on car 2.
	cornerC = blockWidth
)

// testbedAPWindow is how long the AP transmits each round. The paper's
// AP sent ~130 packets per flow per round (26 s at 5 pkt/s), i.e. it
// transmitted while the platoon passed, not continuously; the window
// starts just before the platoon reaches coverage.
const testbedAPWindow = 40 * time.Second

// TestbedLoop returns the block circuit polyline.
func TestbedLoop() *geom.Polyline {
	return geom.MustPolyline(
		geom.Point{X: 0, Y: 0},
		geom.Point{X: blockWidth, Y: 0},
		geom.Point{X: blockWidth, Y: blockHeight},
		geom.Point{X: 0, Y: blockHeight},
		geom.Point{X: 0, Y: 0},
	)
}

// TestbedAPPosition returns the AP antenna position: mid main street, 10 m
// behind the kerb line.
func TestbedAPPosition() geom.Point {
	return geom.Point{X: blockWidth / 2, Y: 10}
}

// TestbedBuilding returns the city-block building footprint that
// obstructs propagation between streets.
func TestbedBuilding() geom.Rect {
	return geom.Rect{
		MinX: buildingMargin, MinY: buildingMargin,
		MaxX: blockWidth - buildingMargin, MaxY: blockHeight - buildingMargin,
	}
}

// testbedChannel is the channel calibration for the urban block: street-
// canyon path loss (exponent 3.8), building obstruction confining coverage
// to the main street, correlated shadowing, and weak-LOS Rician fading.
// Calibrated so a car passing the AP sees ~20-30% losses across its
// coverage window — the paper's regime.
func testbedChannel() radio.Config {
	building := TestbedBuilding()
	return radio.Config{
		PathLossExponent: 3.8,
		TxPowerDBm:       17,
		NoiseFloorDBm:    -94,
		ShadowSigmaDB:    5.5,
		ShadowTau:        800 * time.Millisecond,
		FadingK:          1,
		ObstructionDB: func(a, b geom.Point) float64 {
			if building.SegmentIntersects(a, b) {
				return buildingLossDB
			}
			return 0
		},
	}
}

// urbanHeadwayM is the nominal inter-car gap of the urban platoons
// (testbed, download, corridor).
const urbanHeadwayM = 40.0

// testbedProfiles builds the platoon driver profiles. Car indices are
// 0-based internally; car 0 leads (the paper's "car 1"). The squeeze on
// the last car reproduces the corner-C effect: while the platoon traverses
// the corner at the east end of the main street, car 3 closes to a third
// of its gap behind car 2, making their reception conditions on the rest
// of the pass nearly identical.
func testbedProfiles(cars int) []mobility.DriverProfile {
	profiles := make([]mobility.DriverProfile, cars)
	profiles[0] = mobility.DriverProfile{Name: "car1"}
	for i := 1; i < cars; i++ {
		profiles[i] = mobility.DriverProfile{
			Name:           fmt.Sprintf("car%d", i+1),
			HeadwayM:       urbanHeadwayM,
			HeadwayJitterM: 6,
			WobbleM:        4,
			WobblePeriod:   40 * time.Second,
		}
	}
	if cars >= 3 {
		// The trailing car bunches up on its predecessor around corner C
		// and stays close along the east street.
		profiles[cars-1].Squeezes = []mobility.GapSqueeze{
			{FromArc: cornerC - 40, ToArc: cornerC + 100, Factor: 0.3},
		}
	}
	return profiles
}

// carStartArc places the platoon leader mid-way along the north street at
// round start, so the whole platoon (which trails behind the leader)
// begins well inside the dark area, passes through AP coverage once, and
// spends the rest of the round dark, running the Cooperative-ARQ phase.
const carStartArc = blockWidth + blockHeight + blockWidth/2

// loopLeader returns the platoon leader circling the urban block at
// speed: it starts mid-way along the north street (carStartArc) and slows
// through the corners.
func loopLeader(speed float64) *mobility.PathFollower {
	return mobility.MustPathFollower(mobility.FollowerConfig{
		Path:     TestbedLoop(),
		Loop:     true,
		StartArc: carStartArc,
		SpeedMPS: speed,
		Zones:    cornerZones(),
	})
}

// roundDuration is a testbed round's simulated length: it runs until
// just before the leader would re-enter AP coverage on its second lap —
// one coverage pass per round, with the longest possible dark area for
// the Cooperative-ARQ phase.
func roundDuration(leader *mobility.PathFollower) time.Duration {
	return timeToArc(leader, 2*loopLen-coverageSpillM) - 2*time.Second
}

// cornerZones slows the platoon through each corner, as human drivers do.
func cornerZones() []mobility.SpeedZone {
	corners := []float64{0, blockWidth, blockWidth + blockHeight, 2*blockWidth + blockHeight}
	zones := make([]mobility.SpeedZone, 0, len(corners))
	for _, c := range corners {
		from := c - 8
		if from < 0 {
			from = 0
		}
		zones = append(zones, mobility.SpeedZone{FromArc: from, ToArc: c + 8, Factor: 0.55})
	}
	return zones
}

// TestbedResult bundles the per-round traces of a full experiment.
type TestbedResult struct {
	Config TestbedConfig
	Rounds []*trace.Collector
	// CarIDs lists the car node IDs in platoon order (front first).
	CarIDs []packet.NodeID
	// RoundDuration is the simulated length of each round.
	RoundDuration time.Duration
}

// Normalized validates the config and returns it unchanged. Harness
// bridges call it once before decomposing the experiment into per-round
// work units.
func (cfg TestbedConfig) Normalized() (TestbedConfig, error) {
	if cfg.Rounds <= 0 {
		return cfg, fmt.Errorf("scenario: rounds %d", cfg.Rounds)
	}
	if cfg.Cars <= 0 {
		return cfg, fmt.Errorf("scenario: cars %d", cfg.Cars)
	}
	if cfg.APRepeats < 1 {
		return cfg, fmt.Errorf("scenario: ap repeats %d", cfg.APRepeats)
	}
	return cfg, nil
}

// Name implements Family.
func (TestbedConfig) Name() string { return "testbed" }

// NumRounds implements Family.
func (cfg TestbedConfig) NumRounds() int { return cfg.Rounds }

// Result implements Family.
func (cfg TestbedConfig) Result(rounds []Round) *TestbedResult {
	return &TestbedResult{
		Config:        cfg,
		Rounds:        protocols(rounds),
		CarIDs:        CarIDs(cfg.Cars),
		RoundDuration: roundDuration(loopLeader(cfg.SpeedMPS)),
	}
}

// TestbedRound normalizes cfg and runs one independent round of the
// urban testbed, returning its trace and simulated length.
func TestbedRound(cfg TestbedConfig, round int) (*trace.Collector, time.Duration, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, 0, err
	}
	r, err := cfg.Round(round, &trace.Collector{})
	if err != nil {
		return nil, 0, err
	}
	return r.Protocol, roundDuration(loopLeader(cfg.SpeedMPS)), nil
}

// Round implements Family: one lap of the urban block.
func (cfg TestbedConfig) Round(round int, col *trace.Collector) (Round, error) {
	roundSeed := sim.SeedFor(cfg.Seed, fmt.Sprintf("round-%d", round))
	carIDs := CarIDs(cfg.Cars)

	leader := loopLeader(cfg.SpeedMPS)
	platoon, err := mobility.NewPlatoon(leader, testbedProfiles(cfg.Cars), sim.Stream(roundSeed, "platoon"))
	if err != nil {
		return Round{}, err
	}

	macCfg := mac.DefaultConfig()
	macCfg.Modulation = cfg.Modulation
	macCfg.DeliverCorrupt = cfg.FrameCombining

	// The AP transmits while the platoon passes: from just before the
	// leader reaches the spill edge of coverage, for testbedAPWindow.
	apStart := timeToArc(leader, loopLen-coverageSpillM) - 3*time.Second
	if apStart < 0 {
		apStart = 0
	}

	cars := make([]CarSpec, cfg.Cars)
	for i := range cars {
		id := carIDs[i]
		ccfg := cfg.carqConfig(id)
		ccfg.BatchRequests = cfg.BatchRequests
		ccfg.FrameCombining = cfg.FrameCombining
		ccfg.FCModulation = cfg.Modulation
		ccfg.CandidateTTL = cfg.CandidateTTL
		if cfg.Selection != nil {
			ccfg.Selection = cfg.Selection
		}
		cars[i] = CarSpec{ID: id, Mobility: platoon.Car(i), Carq: ccfg, Factory: cfg.Factory}
	}

	_, err = cfg.run(roundSeed, col, Setup{
		Channel: testbedChannel(),
		MAC:     macCfg,
		APs: []APSpec{{
			Position: TestbedAPPosition(),
			Config: apConfigWindow(APID, carIDs, cfg.PacketsPerSecond,
				cfg.PayloadBytes, cfg.APRepeats, apStart, apStart+testbedAPWindow),
			AdaptiveMaxRepeats: cfg.AdaptiveAPRepeats,
		}},
		Cars:     cars,
		Duration: roundDuration(leader),
	})
	if err != nil {
		return Round{}, err
	}
	return Round{Protocol: col}, nil
}

// timeToArc returns the time at which the follower's unwrapped arc reaches
// target, by binary search over the monotone ArcAt.
func timeToArc(f *mobility.PathFollower, target float64) time.Duration {
	lo, hi := time.Duration(0), 10*f.LapTime()
	for hi-lo > 10*time.Millisecond {
		mid := (lo + hi) / 2
		if f.ArcAt(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

func apConfigWindow(id packet.NodeID, flows []packet.NodeID, rate float64, payload, repeats int, start, stop time.Duration) ap.Config {
	return ap.Config{
		ID:               id,
		Flows:            append([]packet.NodeID(nil), flows...),
		PacketsPerSecond: rate,
		PayloadBytes:     payload,
		Repeats:          repeats,
		Start:            start,
		Stop:             stop,
	}
}
