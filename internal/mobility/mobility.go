// Package mobility provides the vehicle movement models behind the
// reproduced experiments: arc-length path followers with position-dependent
// speed (corners), and platoon followers with per-driver gap behaviour —
// enough to recreate the paper's urban loop, its corner-C car-bunching
// anomaly, and highway drive-thru passes.
package mobility

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
)

// Model reports a position at a virtual time.
type Model interface {
	Position(now time.Duration) geom.Point
}

// Func adapts a function to the Model interface.
type Func func(now time.Duration) geom.Point

// Position implements Model.
func (f Func) Position(now time.Duration) geom.Point { return f(now) }

// SpeedZone scales the base speed within an arc-length range of the path.
// Zones model corners and congested stretches.
type SpeedZone struct {
	FromArc float64 // start of the zone, metres along the path
	ToArc   float64 // end of the zone, metres along the path
	Factor  float64 // speed multiplier in (0, +inf), e.g. 0.5 for a corner
}

// PathFollower moves along a polyline at a base speed modulated by speed
// zones. For closed paths (Loop=true) the arc position wraps; otherwise
// the follower stops at the end.
//
// The arc-vs-time relationship is precomputed by numeric integration at
// construction, so Position lookups are O(log n).
type PathFollower struct {
	path     *geom.Polyline
	loop     bool
	startArc float64
	// lapTimes[i] is the time to reach arc sample i from arc 0; samples
	// are spaced sampleStep metres apart, covering one full path length.
	lapTimes   []float64
	sampleStep float64
	lapTime    float64 // time for one full traversal
}

// FollowerConfig configures MustPathFollower.
type FollowerConfig struct {
	Path     *geom.Polyline
	Loop     bool
	StartArc float64 // initial position, metres along the path
	SpeedMPS float64 // base speed, metres/second
	Zones    []SpeedZone
}

// newPathFollower validates cfg and precomputes the time parameterisation.
func newPathFollower(cfg FollowerConfig) (*PathFollower, error) {
	if cfg.Path == nil {
		return nil, fmt.Errorf("mobility: nil path")
	}
	if cfg.SpeedMPS <= 0 {
		return nil, fmt.Errorf("mobility: non-positive speed %v", cfg.SpeedMPS)
	}
	for i, z := range cfg.Zones {
		if z.Factor <= 0 {
			return nil, fmt.Errorf("mobility: zone %d has non-positive factor %v", i, z.Factor)
		}
		if z.ToArc <= z.FromArc {
			return nil, fmt.Errorf("mobility: zone %d has empty arc range [%v, %v)", i, z.FromArc, z.ToArc)
		}
	}
	total := cfg.Path.Length()
	// Normalise the start position into [0, total): callers may pass an
	// arc several laps ahead (or a negative offset behind the origin) on
	// looped paths.
	startArc := math.Mod(cfg.StartArc, total)
	if startArc < 0 {
		startArc += total
	}
	const step = 0.5 // metres per integration sample
	n := int(math.Ceil(total/step)) + 1
	times := make([]float64, n)
	for i := 1; i < n; i++ {
		arc := float64(i-1) * step
		ds := step
		if arc+ds > total {
			ds = total - arc
		}
		v := cfg.SpeedMPS * zoneFactor(cfg.Zones, arc+ds/2)
		times[i] = times[i-1] + ds/v
	}
	return &PathFollower{
		path:       cfg.Path,
		loop:       cfg.Loop,
		startArc:   startArc,
		lapTimes:   times,
		sampleStep: step,
		lapTime:    times[n-1],
	}, nil
}

// MustPathFollower is newPathFollower but panics on error.
func MustPathFollower(cfg FollowerConfig) *PathFollower {
	f, err := newPathFollower(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

func zoneFactor(zones []SpeedZone, arc float64) float64 {
	f := 1.0
	for _, z := range zones {
		if arc >= z.FromArc && arc < z.ToArc {
			f *= z.Factor
		}
	}
	return f
}

// LapTime returns the time to traverse the full path once.
func (f *PathFollower) LapTime() time.Duration {
	return time.Duration(f.lapTime * float64(time.Second))
}

// ArcAt returns the arc-length position at time now, measured from the
// path start (not from StartArc) and NOT wrapped: it increases without
// bound on looped paths, so callers can difference it for lap counting.
func (f *PathFollower) ArcAt(now time.Duration) float64 {
	t := now.Seconds()
	// Offset by the time needed to reach startArc from arc 0.
	t += f.timeToArc(f.startArc)
	laps := 0.0
	if f.loop {
		laps = math.Floor(t / f.lapTime)
		t -= laps * f.lapTime
	} else if t >= f.lapTime {
		return f.path.Length()
	}
	return laps*f.path.Length() + f.arcAtLapTime(t)
}

// timeToArc inverts the precomputed table: seconds to reach the given arc
// from arc 0 within one lap.
func (f *PathFollower) timeToArc(arc float64) float64 {
	if arc <= 0 {
		return 0
	}
	total := f.path.Length()
	if arc >= total {
		return f.lapTime
	}
	i := int(arc / f.sampleStep)
	if i >= len(f.lapTimes)-1 {
		return f.lapTime
	}
	lo := float64(i) * f.sampleStep
	hi := lo + f.sampleStep
	if hi > total {
		hi = total
	}
	frac := 0.0
	if hi > lo {
		frac = (arc - lo) / (hi - lo)
	}
	return f.lapTimes[i] + frac*(f.lapTimes[i+1]-f.lapTimes[i])
}

// arcAtLapTime converts an in-lap time to an in-lap arc by binary search on
// the cumulative-time table.
func (f *PathFollower) arcAtLapTime(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t >= f.lapTime {
		return f.path.Length()
	}
	lo, hi := 0, len(f.lapTimes)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if f.lapTimes[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	t0, t1 := f.lapTimes[lo], f.lapTimes[hi]
	arc0 := float64(lo) * f.sampleStep
	arc1 := float64(hi) * f.sampleStep
	if arc1 > f.path.Length() {
		arc1 = f.path.Length()
	}
	if t1 == t0 {
		return arc0
	}
	return arc0 + (arc1-arc0)*(t-t0)/(t1-t0)
}

// Position implements Model.
func (f *PathFollower) Position(now time.Duration) geom.Point {
	arc := f.ArcAt(now)
	if f.loop {
		return f.path.AtLooped(arc)
	}
	return f.path.At(arc)
}
