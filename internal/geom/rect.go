package geom

// Rect is an axis-aligned rectangle, used to model city-block buildings
// that obstruct radio propagation.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// contains reports whether p lies strictly inside the rectangle.
func (r Rect) contains(p Point) bool {
	return p.X > r.MinX && p.X < r.MaxX && p.Y > r.MinY && p.Y < r.MaxY
}

// SegmentIntersects reports whether the segment p-q passes through the
// rectangle's interior (merely grazing the boundary does not count). It
// uses Liang-Barsky clipping.
func (r Rect) SegmentIntersects(p, q Point) bool {
	if r.contains(p) || r.contains(q) {
		return true
	}
	dx := q.X - p.X
	dy := q.Y - p.Y
	t0, t1 := 0.0, 1.0
	if !clipSlab(dx, r.MinX-p.X, &t0, &t1) ||
		!clipSlab(-dx, p.X-r.MaxX, &t0, &t1) ||
		!clipSlab(dy, r.MinY-p.Y, &t0, &t1) ||
		!clipSlab(-dy, p.Y-r.MaxY, &t0, &t1) {
		return false
	}
	// A positive clipped span means the segment crosses the interior
	// rather than touching a corner or running along an edge.
	return t1-t0 > 1e-9
}

// clipSlab narrows [t0, t1] to the half-plane denom*t >= num; it reports
// false when the range empties.
func clipSlab(denom, num float64, t0, t1 *float64) bool {
	const eps = 1e-12
	switch {
	case denom > eps:
		t := num / denom
		if t > *t1 {
			return false
		}
		if t > *t0 {
			*t0 = t
		}
	case denom < -eps:
		t := num / denom
		if t < *t0 {
			return false
		}
		if t < *t1 {
			*t1 = t
		}
	default:
		// Segment parallel to this slab: reject when outside it or
		// running along its boundary (num == 0), which is not interior.
		if num >= 0 {
			return false
		}
	}
	return true
}
