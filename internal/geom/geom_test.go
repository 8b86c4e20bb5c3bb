package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEq(got, tt.want) {
				t.Fatalf("Dist = %v, want %v", got, tt.want)
			}
			if got := tt.q.Dist(tt.p); !almostEq(got, tt.want) {
				t.Fatalf("Dist not symmetric: %v", got)
			}
		})
	}
}

func TestVecOps(t *testing.T) {
	v := Point{3, 4}.Sub(Point{0, 0})
	if !almostEq(v.length(), 5) {
		t.Fatalf("Len = %v, want 5", v.length())
	}
	u := v.Unit()
	if !almostEq(u.length(), 1) {
		t.Fatalf("Unit().Len() = %v, want 1", u.length())
	}
	if got := (Vec{}).Unit(); got != (Vec{}) {
		t.Fatalf("Unit of zero vec = %v, want zero", got)
	}
	if got := v.Scale(2); !almostEq(got.length(), 10) {
		t.Fatalf("Scale(2).Len() = %v, want 10", got.length())
	}
	p := Point{1, 1}.Add(Vec{2, 3})
	if p != (Point{3, 4}) {
		t.Fatalf("Add = %v, want (3,4)", p)
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if got := Lerp(p, q, 0); got != p {
		t.Fatalf("Lerp(0) = %v", got)
	}
	if got := Lerp(p, q, 1); got != q {
		t.Fatalf("Lerp(1) = %v", got)
	}
	if got := Lerp(p, q, 0.5); got != (Point{5, 10}) {
		t.Fatalf("Lerp(0.5) = %v", got)
	}
}

func TestNewPolylineValidation(t *testing.T) {
	if _, err := newPolyline(Point{0, 0}); err == nil {
		t.Fatal("single-point polyline accepted")
	}
	if _, err := newPolyline(Point{1, 2}, Point{1, 2}); err == nil {
		t.Fatal("zero-length polyline accepted")
	}
	if _, err := newPolyline(Point{0, 0}, Point{1, 0}); err != nil {
		t.Fatalf("valid polyline rejected: %v", err)
	}
}

func TestMustPolylinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPolyline did not panic on invalid input")
		}
	}()
	MustPolyline(Point{0, 0})
}

func TestPolylineLengthAndAt(t *testing.T) {
	// L-shaped path: 10 m east then 10 m north.
	pl := MustPolyline(Point{0, 0}, Point{10, 0}, Point{10, 10})
	if !almostEq(pl.Length(), 20) {
		t.Fatalf("Length = %v, want 20", pl.Length())
	}
	tests := []struct {
		s    float64
		want Point
	}{
		{-5, Point{0, 0}},
		{0, Point{0, 0}},
		{5, Point{5, 0}},
		{10, Point{10, 0}},
		{15, Point{10, 5}},
		{20, Point{10, 10}},
		{25, Point{10, 10}},
	}
	for _, tt := range tests {
		got := pl.At(tt.s)
		if !almostEq(got.X, tt.want.X) || !almostEq(got.Y, tt.want.Y) {
			t.Fatalf("At(%v) = %v, want %v", tt.s, got, tt.want)
		}
	}
}

func TestPolylineAtLooped(t *testing.T) {
	// Closed square loop, 40 m perimeter.
	pl := MustPolyline(Point{0, 0}, Point{10, 0}, Point{10, 10}, Point{0, 10}, Point{0, 0})
	if !almostEq(pl.Length(), 40) {
		t.Fatalf("Length = %v, want 40", pl.Length())
	}
	cases := []struct {
		s    float64
		want Point
	}{
		{0, Point{0, 0}},
		{40, Point{0, 0}},
		{45, Point{5, 0}},
		{85, Point{5, 0}},
		{-5, Point{0, 5}}, // wraps backwards onto the last segment
	}
	for _, tt := range cases {
		got := pl.AtLooped(tt.s)
		if !almostEq(got.X, tt.want.X) || !almostEq(got.Y, tt.want.Y) {
			t.Fatalf("AtLooped(%v) = %v, want %v", tt.s, got, tt.want)
		}
	}
}

func TestPolylineHeading(t *testing.T) {
	pl := MustPolyline(Point{0, 0}, Point{10, 0}, Point{10, 10})
	if h := pl.heading(5); !almostEq(h.DX, 1) || !almostEq(h.DY, 0) {
		t.Fatalf("Heading(5) = %v, want east", h)
	}
	if h := pl.heading(15); !almostEq(h.DX, 0) || !almostEq(h.DY, 1) {
		t.Fatalf("Heading(15) = %v, want north", h)
	}
}

func TestPolylineDuplicateInteriorPoints(t *testing.T) {
	pl := MustPolyline(Point{0, 0}, Point{5, 0}, Point{5, 0}, Point{10, 0})
	if !almostEq(pl.Length(), 10) {
		t.Fatalf("Length = %v, want 10", pl.Length())
	}
	got := pl.At(5)
	if !almostEq(got.X, 5) || !almostEq(got.Y, 0) {
		t.Fatalf("At(5) = %v, want (5,0)", got)
	}
}

func TestPointsReturnsCopy(t *testing.T) {
	pl := MustPolyline(Point{0, 0}, Point{10, 0})
	pts := pl.Points()
	pts[0] = Point{99, 99}
	if pl.At(0) != (Point{0, 0}) {
		t.Fatal("mutating Points() result changed the polyline")
	}
}

func TestPolylineAtMonotoneProperty(t *testing.T) {
	// Property: walking a polyline by increasing arc length never moves
	// the point backwards along the path — distance from the start along
	// consecutive samples is non-decreasing in arc length and the sampled
	// point is always on/near the path (within segment bounds).
	pl := MustPolyline(Point{0, 0}, Point{100, 0}, Point{100, 50}, Point{0, 50})
	check := func(raw []uint16) bool {
		for _, r := range raw {
			s := math.Mod(float64(r), pl.Length()+50)
			p := pl.At(s)
			// Every sampled point must lie within the bounding box.
			if p.X < -1e-9 || p.X > 100+1e-9 || p.Y < -1e-9 || p.Y > 50+1e-9 {
				return false
			}
			// Arc-length consistency: At(s) and At(s+d) are at most d apart.
			d := 7.5
			q := pl.At(s + d)
			if p.Dist(q) > d+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	check := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
