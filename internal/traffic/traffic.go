// Package traffic simulates microscopic closed-loop vehicle dynamics:
// IDM car-following with per-driver parameter profiles, a MOBIL-style
// lane-change rule, and a road network of links, lanes and signalized
// intersections (fixed-cycle or queue-actuated). It exists so scenarios
// can stop hand-tuning open-loop speed zones and instead get congestion,
// queue compression at red lights, and stop-and-go waves from actual
// vehicle interactions, then expose each vehicle to the protocol stack
// as a mobility.Model. Populations come either from explicit specs or
// from an origin–destination demand table (ExpandDemand): Poisson
// injection per OD flow, shortest-path routes, exit at the destination —
// rush corridors and empty side streets instead of statistically flat
// random walks.
//
// # Design note
//
// Car following is the Intelligent Driver Model (IDM). A vehicle at speed
// v, closing at rate Δv = v - v_lead on a bumper-to-bumper gap s,
// accelerates at
//
//	dv/dt = a · [ 1 − (v/v0)^4 − (s*/s)² ]
//	s*    = s0 + max(0, v·T + v·Δv / (2·√(a·b)))
//
// where v0 is the desired speed (capped by the link speed limit), T the
// desired time headway, s0 the standstill gap, a the maximum
// acceleration and b the comfortable deceleration — all per-driver
// parameters (DriverParams). A red signal is a standing virtual leader at
// the stop line; an empty lane defers to the first vehicle on the
// vehicle's chosen next link.
//
// Lane changes use a simplified MOBIL criterion: change when the new
// follower could brake gently (≥ −b_safe), and the acceleration gained
// exceeds a threshold plus politeness times the acceleration the new
// follower loses.
//
// Integration is forward Euler on a fixed tick dt (Config.Tick, default
// 100 ms): positions advance with the pre-update speed (arc += v·dt, then
// v += a·dt, clamped at 0). The position update deliberately uses the
// old speed so that a sample's linear extrapolation over one tick lands
// exactly on the next tick's position.
//
// # Determinism contract
//
// A Simulation is a pure function of (Config, []VehicleSpec): vehicles
// step in ID order, per-lane orderings are explicit slices (no map
// iteration), and every random draw comes from a per-vehicle stream
// derived from Config.Seed, so a run is bit-reproducible. Its only
// trajectory output is the stream Config.Recorder receives: samples
// every Config.RecordEvery ticks (plus every lane/link change), each
// holding the vehicle's exact state at its timestamp. A Replay of that
// stream — in memory or decoded from either trace codec — is a
// piecewise-linear track equal to Simulation.PositionNow at every
// recorded instant, so every sweep arm and every harness worker sees
// the same position history: the property the record-once, sweep-many
// workflow rests on.
package traffic

import (
	"fmt"
	"math"
)

// DriverParams are one driver's IDM and MOBIL parameters.
type DriverParams struct {
	// DesiredSpeedMPS is v0, the free-road cruising speed. The effective
	// desired speed on a link is min(v0, link speed limit).
	DesiredSpeedMPS float64
	// TimeHeadwayS is T, the desired time gap to the leader, seconds.
	TimeHeadwayS float64
	// MinGapM is s0, the bumper-to-bumper standstill gap, metres.
	MinGapM float64
	// MaxAccelMPS2 is a, the maximum acceleration.
	MaxAccelMPS2 float64
	// ComfortDecelMPS2 is b, the comfortable braking deceleration
	// (positive).
	ComfortDecelMPS2 float64
	// LengthM is the vehicle length.
	LengthM float64
	// Politeness is the MOBIL p factor: how much the acceleration lost
	// by the new follower weighs against the changer's own gain.
	Politeness float64
	// ChangeThresholdMPS2 is the MOBIL switching threshold: the net
	// advantage required before a lane change, m/s².
	ChangeThresholdMPS2 float64
}

// DefaultDriver returns a mildly assertive urban driver.
func DefaultDriver() DriverParams {
	return DriverParams{
		DesiredSpeedMPS:     15, // 54 km/h, typically capped by the link
		TimeHeadwayS:        1.5,
		MinGapM:             2,
		MaxAccelMPS2:        1.5,
		ComfortDecelMPS2:    2,
		LengthM:             4.5,
		Politeness:          0.3,
		ChangeThresholdMPS2: 0.2,
	}
}

func (p DriverParams) validate() error {
	switch {
	case p.DesiredSpeedMPS <= 0:
		return fmt.Errorf("traffic: desired speed %v", p.DesiredSpeedMPS)
	case p.TimeHeadwayS <= 0:
		return fmt.Errorf("traffic: time headway %v", p.TimeHeadwayS)
	case p.MinGapM <= 0:
		return fmt.Errorf("traffic: min gap %v", p.MinGapM)
	case p.MaxAccelMPS2 <= 0:
		return fmt.Errorf("traffic: max accel %v", p.MaxAccelMPS2)
	case p.ComfortDecelMPS2 <= 0:
		return fmt.Errorf("traffic: comfort decel %v", p.ComfortDecelMPS2)
	case p.LengthM <= 0:
		return fmt.Errorf("traffic: length %v", p.LengthM)
	}
	return nil
}

// IDMAccel returns the IDM acceleration for a vehicle at speed v whose
// leader moves at vLead with bumper-to-bumper gap gapM. v0 is the
// effective desired speed (driver preference already capped by the link
// limit). Pass gapM = +Inf for a free road.
func (p DriverParams) IDMAccel(v, vLead, gapM, v0 float64) float64 {
	free := 1.0
	if v0 > 0 {
		r := v / v0
		r2 := r * r
		free = 1 - r2*r2
	}
	if math.IsInf(gapM, 1) {
		return p.MaxAccelMPS2 * free
	}
	// A vanishing or inverted gap (merging overlap) behaves as a hair's
	// breadth: the interaction term then dominates everything and the
	// vehicle brakes as hard as the model can ask.
	if gapM < 0.1 {
		gapM = 0.1
	}
	dv := v - vLead
	sStar := p.MinGapM + math.Max(0, v*p.TimeHeadwayS+v*dv/(2*math.Sqrt(p.MaxAccelMPS2*p.ComfortDecelMPS2)))
	ratio := sStar / gapM
	return p.MaxAccelMPS2 * (free - ratio*ratio)
}

// EquilibriumGap returns the bumper-to-bumper gap at which a driver
// following a leader at equal constant speed v has zero acceleration —
// the steady-state platoon spacing, useful for seeding dense scenarios.
func (p DriverParams) EquilibriumGap(v, v0 float64) float64 {
	free := 1.0
	if v0 > 0 {
		r := v / v0
		r2 := r * r
		free = 1 - r2*r2
	}
	if free <= 0 {
		return math.Inf(1)
	}
	return (p.MinGapM + v*p.TimeHeadwayS) / math.Sqrt(free)
}
