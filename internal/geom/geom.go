// Package geom provides the small amount of 2-D geometry the mobility and
// radio models need: points, vectors, and arc-length parameterised
// polylines. Coordinates are metres in a flat local frame.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the plane, in metres.
type Point struct {
	X, Y float64
}

// Add returns p translated by the vector v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q. Coordinates are
// metres in a local frame, so the plain sqrt form is safe (math.Hypot's
// overflow/underflow rescaling would be pure cost at these magnitudes)
// and sits on the delivery hot path.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Vec is a displacement in the plane, in metres.
type Vec struct {
	DX, DY float64
}

// length returns the Euclidean norm of v. Like Point.Dist it uses the plain
// sqrt form; displacements are metres.
func (v Vec) length() float64 { return math.Sqrt(v.DX*v.DX + v.DY*v.DY) }

// Scale returns v scaled by k.
func (v Vec) Scale(k float64) Vec { return Vec{v.DX * k, v.DY * k} }

// Unit returns the unit vector in the direction of v. The unit vector of
// the zero vector is the zero vector.
func (v Vec) Unit() Vec {
	l := v.length()
	if l == 0 {
		return Vec{}
	}
	return Vec{v.DX / l, v.DY / l}
}

// Lerp linearly interpolates between p and q; t=0 gives p, t=1 gives q.
// t outside [0,1] extrapolates.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Polyline is an open chain of segments with an arc-length parameterisation.
// It is immutable after construction.
type Polyline struct {
	pts []Point
	// cum[i] is the arc length from pts[0] to pts[i]; cum[len-1] is the
	// total length.
	cum []float64
	// dirs[i] is the unit direction of segment i (pts[i] -> pts[i+1]),
	// precomputed because PointHeading sits on the mobility hot path (one
	// call per station position evaluation).
	dirs []Vec
}

// newPolyline builds a polyline through the given points. It requires at
// least two points; consecutive duplicate points are allowed (they
// contribute zero length).
func newPolyline(pts ...Point) (*Polyline, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("geom: polyline needs >= 2 points, got %d", len(pts))
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	cum := make([]float64, len(cp))
	dirs := make([]Vec, len(cp)-1)
	for i := 1; i < len(cp); i++ {
		cum[i] = cum[i-1] + cp[i].Dist(cp[i-1])
		dirs[i-1] = cp[i].Sub(cp[i-1]).Unit()
	}
	if cum[len(cum)-1] == 0 {
		return nil, fmt.Errorf("geom: polyline has zero total length")
	}
	return &Polyline{pts: cp, cum: cum, dirs: dirs}, nil
}

// MustPolyline is newPolyline but panics on error; for static scenario
// geometry known to be valid.
func MustPolyline(pts ...Point) *Polyline {
	pl, err := newPolyline(pts...)
	if err != nil {
		panic(err)
	}
	return pl
}

// Length returns the total arc length in metres.
func (pl *Polyline) Length() float64 { return pl.cum[len(pl.cum)-1] }

// Points returns a copy of the polyline's vertices.
func (pl *Polyline) Points() []Point {
	cp := make([]Point, len(pl.pts))
	copy(cp, pl.pts)
	return cp
}

// At returns the point at arc length s from the start. s is clamped to
// [0, Length].
func (pl *Polyline) At(s float64) Point {
	total := pl.Length()
	switch {
	case s <= 0:
		return pl.pts[0]
	case s >= total:
		return pl.pts[len(pl.pts)-1]
	}
	// Binary search for the segment containing s.
	lo, hi := 0, len(pl.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := pl.cum[hi] - pl.cum[lo]
	if segLen == 0 {
		return pl.pts[lo]
	}
	t := (s - pl.cum[lo]) / segLen
	return Lerp(pl.pts[lo], pl.pts[hi], t)
}

// PointHeading returns At(s) and heading(s) from one segment search — the
// two are always wanted together on the mobility hot path (lane offsets
// need the travel direction), and both run the same binary search over the
// cumulative lengths. Results are exactly At's and heading's.
func (pl *Polyline) PointHeading(s float64) (Point, Vec) {
	total := pl.Length()
	if s <= 0 || s >= total {
		// Ends have bespoke clamp rules in both functions; they are rare
		// (a vehicle parked at a link boundary), so delegate.
		return pl.At(s), pl.heading(s)
	}
	lo, hi := 0, len(pl.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := pl.cum[hi] - pl.cum[lo]
	p := pl.pts[lo]
	if segLen != 0 {
		p = Lerp(pl.pts[lo], pl.pts[hi], (s-pl.cum[lo])/segLen)
	}
	return p, pl.dirs[lo]
}

// Segment describes one polyline segment and its arc-length span, for
// callers that cache segment geometry across repeated evaluations (the
// traffic replay cursor). Evaluating Lerp(Lo, Hi, (s-CumLo)/(CumHi-CumLo))
// for s in [CumLo, CumHi) reproduces At(s) bit-for-bit, and Dir is
// heading(s) over the same span.
type Segment struct {
	CumLo, CumHi float64
	Lo, Hi       Point
	Dir          Vec
}

// SegmentAt returns the segment containing arc length s, using the same
// search At and PointHeading run. It reports false for the clamped end
// cases (s <= 0 or s >= Length) and for zero-length segments, where the
// Segment evaluation above would not reproduce At exactly.
func (pl *Polyline) SegmentAt(s float64) (Segment, bool) {
	total := pl.Length()
	if s <= 0 || s >= total {
		return Segment{}, false
	}
	lo, hi := 0, len(pl.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	if pl.cum[hi] == pl.cum[lo] {
		return Segment{}, false
	}
	return Segment{
		CumLo: pl.cum[lo], CumHi: pl.cum[hi],
		Lo: pl.pts[lo], Hi: pl.pts[hi],
		Dir: pl.dirs[lo],
	}, true
}

// AtLooped returns the point at arc length s on the closed loop formed by
// joining the last vertex back to the first is NOT implied; the polyline is
// treated as a cycle of its own length: s wraps modulo Length. Callers that
// want a closed circuit should pass a polyline whose last point equals its
// first.
func (pl *Polyline) AtLooped(s float64) Point {
	total := pl.Length()
	s = math.Mod(s, total)
	if s < 0 {
		s += total
	}
	return pl.At(s)
}

// heading returns the unit direction of travel at arc length s (the
// direction of the segment containing s). At exact vertices it returns the
// direction of the following segment.
func (pl *Polyline) heading(s float64) Vec {
	total := pl.Length()
	if s < 0 {
		s = 0
	}
	if s >= total {
		s = total
	}
	lo, hi := 0, len(pl.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return pl.dirs[lo]
}
