package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geom"
)

// DriverProfile captures the per-driver behaviour the paper observed: each
// car keeps a nominal headway to its predecessor, with per-round variation
// and a slow wobble, and may close up or fall back in specific stretches
// of the track (the corner-C effect, which the authors attribute to the
// inexperienced driver of car 2).
type DriverProfile struct {
	// Name labels the driver in diagnostics.
	Name string
	// HeadwayM is the nominal gap to the predecessor, metres.
	HeadwayM float64
	// HeadwayJitterM scales the per-round gaussian variation of the gap.
	HeadwayJitterM float64
	// WobbleM is the amplitude of the slow in-round gap oscillation.
	WobbleM float64
	// WobblePeriod is the oscillation period.
	WobblePeriod time.Duration
	// Squeezes modulate this car's gap while the platoon leader is
	// within given arc ranges of the track.
	Squeezes []GapSqueeze
}

// GapSqueeze scales a follower's gap while the leader's (unwrapped, in-lap)
// arc position lies in [FromArc, ToArc).
type GapSqueeze struct {
	FromArc float64
	ToArc   float64
	Factor  float64 // e.g. 0.3: the car closes to 30% of its nominal gap
}

// Platoon positions a leader plus followers along a shared path. The
// leader is a PathFollower; follower i trails follower i-1 by its profile's
// gap. Gaps transition smoothly because the wobble and squeeze terms are
// continuous in time.
type Platoon struct {
	leader   *PathFollower
	profiles []DriverProfile
	// roundJitter[i] is the fixed per-round gap offset of car i.
	roundJitter []float64
	// wobblePhase[i] randomises each car's oscillation phase.
	wobblePhase []float64
}

// NewPlatoon builds a platoon of len(profiles) cars. profiles[0] is the
// leader (its gap fields are ignored). rng supplies the per-round draws;
// pass a round-specific stream so each experiment round gets fresh driver
// behaviour.
func NewPlatoon(leader *PathFollower, profiles []DriverProfile, rng *rand.Rand) (*Platoon, error) {
	if leader == nil {
		return nil, fmt.Errorf("mobility: nil leader")
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("mobility: empty platoon")
	}
	for i, p := range profiles[1:] {
		if p.HeadwayM <= 0 {
			return nil, fmt.Errorf("mobility: car %d has non-positive headway %v", i+1, p.HeadwayM)
		}
		for _, s := range p.Squeezes {
			if s.Factor <= 0 {
				return nil, fmt.Errorf("mobility: car %d squeeze factor %v", i+1, s.Factor)
			}
		}
	}
	pl := &Platoon{
		leader:      leader,
		profiles:    profiles,
		roundJitter: make([]float64, len(profiles)),
		wobblePhase: make([]float64, len(profiles)),
	}
	for i := range profiles {
		if i == 0 {
			continue
		}
		pl.roundJitter[i] = rng.NormFloat64() * profiles[i].HeadwayJitterM
		pl.wobblePhase[i] = rng.Float64() * 2 * math.Pi
	}
	return pl, nil
}

// Size returns the number of cars.
func (p *Platoon) Size() int { return len(p.profiles) }

// Leader returns the leader's path follower.
func (p *Platoon) Leader() *PathFollower { return p.leader }

// gapAt returns car i's instantaneous gap behind car i-1.
func (p *Platoon) gapAt(i int, now time.Duration) float64 {
	prof := p.profiles[i]
	gap := prof.HeadwayM + p.roundJitter[i]
	if prof.WobbleM > 0 && prof.WobblePeriod > 0 {
		omega := 2 * math.Pi / prof.WobblePeriod.Seconds()
		gap += prof.WobbleM * math.Sin(omega*now.Seconds()+p.wobblePhase[i])
	}
	leaderArc := math.Mod(p.leader.ArcAt(now), p.leader.PathLength())
	for _, s := range prof.Squeezes {
		if leaderArc >= s.FromArc && leaderArc < s.ToArc {
			gap *= s.Factor
		}
	}
	// Never allow a non-positive or reversed gap: cars cannot overlap.
	const minGap = 3
	if gap < minGap {
		gap = minGap
	}
	return gap
}

// ArcAt returns car i's unwrapped arc position at time now.
func (p *Platoon) ArcAt(i int, now time.Duration) float64 {
	if i < 0 || i >= len(p.profiles) {
		panic(fmt.Sprintf("mobility: car index %d out of range [0,%d)", i, len(p.profiles)))
	}
	arc := p.leader.ArcAt(now)
	for j := 1; j <= i; j++ {
		arc -= p.gapAt(j, now)
	}
	return arc
}

// Car returns the Model for car i (0 = leader).
func (p *Platoon) Car(i int) Model {
	if i < 0 || i >= len(p.profiles) {
		panic(fmt.Sprintf("mobility: car index %d out of range [0,%d)", i, len(p.profiles)))
	}
	return Func(func(now time.Duration) geom.Point {
		arc := p.ArcAt(i, now)
		path := p.leader.path
		if p.leader.loop {
			return path.AtLooped(arc)
		}
		if arc < 0 {
			arc = 0
		}
		return path.At(arc)
	})
}

// Cars returns every car's Model, leader first.
func (p *Platoon) Cars() []Model {
	cars := make([]Model, len(p.profiles))
	for i := range cars {
		cars[i] = p.Car(i)
	}
	return cars
}

// Gap returns the instantaneous gap in metres between car i and its
// predecessor (i >= 1), for diagnostics and tests.
func (p *Platoon) Gap(i int, now time.Duration) float64 {
	if i <= 0 || i >= len(p.profiles) {
		panic(fmt.Sprintf("mobility: gap index %d out of range [1,%d)", i, len(p.profiles)))
	}
	return p.gapAt(i, now)
}

// Spacing returns the distance between consecutive cars' positions at now,
// for diagnostics.
func (p *Platoon) Spacing(now time.Duration) []float64 {
	out := make([]float64, 0, len(p.profiles)-1)
	for i := 1; i < len(p.profiles); i++ {
		a := p.Car(i - 1).Position(now)
		b := p.Car(i).Position(now)
		out = append(out, a.Dist(b))
	}
	return out
}

var _ Model = (*PathFollower)(nil)

// StraightHighway returns an open straight path of the given length along
// the X axis — the drive-thru scenario of reference [1] in the paper.
func StraightHighway(lengthM float64) *geom.Polyline {
	return geom.MustPolyline(geom.Point{X: 0}, geom.Point{X: lengthM})
}
