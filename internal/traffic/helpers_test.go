package traffic

import (
	"math"
	"slices"
	"time"
)

// defaultGridSpec is the tests' 3x3-intersection grid of 120 m blocks
// with 50 km/h two-lane streets and a 24 s green per axis.
func defaultGridSpec() GridSpec {
	return GridSpec{
		Rows: 3, Cols: 3,
		BlockM:        120,
		Lanes:         2,
		LaneWidthM:    3.2,
		SpeedLimitMPS: 14, // ~50 km/h
		Green:         24 * time.Second,
		AllRed:        4 * time.Second,
	}
}

// greenFor reports whether link sees green at virtual time now under
// sig's fixed cycle.
func greenFor(sig *Signal, link LinkID, now time.Duration) bool {
	if sig.cycle() <= 0 {
		return true
	}
	green, _ := sig.phaseAt(now)
	return slices.Contains(green, link)
}

// equilibriumGap returns the bumper-to-bumper gap at which a driver with
// parameters p following a leader at equal constant speed v has zero
// acceleration: the steady-state platoon spacing.
func equilibriumGap(p DriverParams, v, v0 float64) float64 {
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

// state reports vehicle id's instantaneous road coordinates in s.
func state(s *Simulation, id int) (link LinkID, lane int, arcM, speedMPS float64) {
	veh := s.vehs[id]
	return veh.link.ID, veh.lane, veh.arc, veh.v
}

// stoppedCount returns how many in-traffic vehicles of s move slower
// than thresholdMPS.
func stoppedCount(s *Simulation, thresholdMPS float64) int {
	n := 0
	for _, veh := range s.vehs {
		if !veh.pending && !veh.exited && veh.v < thresholdMPS {
			n++
		}
	}
	return n
}
