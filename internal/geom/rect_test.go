package geom

import (
	"testing"
	"testing/quick"
)

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"centre", Point{X: 15, Y: 15}, true},
		{"outside left", Point{X: 5, Y: 15}, false},
		{"outside above", Point{X: 15, Y: 25}, false},
		{"on edge", Point{X: 10, Y: 15}, false}, // boundary is not interior
		{"corner", Point{X: 10, Y: 10}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.contains(tt.p); got != tt.want {
				t.Fatalf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestSegmentIntersects(t *testing.T) {
	r := Rect{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}
	tests := []struct {
		name string
		p, q Point
		want bool
	}{
		{"through middle", Point{X: 0, Y: 15}, Point{X: 30, Y: 15}, true},
		{"diagonal through", Point{X: 0, Y: 0}, Point{X: 30, Y: 30}, true},
		{"endpoint inside", Point{X: 15, Y: 15}, Point{X: 100, Y: 100}, true},
		{"both inside", Point{X: 12, Y: 12}, Point{X: 18, Y: 18}, true},
		{"misses above", Point{X: 0, Y: 25}, Point{X: 30, Y: 25}, false},
		{"misses left", Point{X: 5, Y: 0}, Point{X: 5, Y: 30}, false},
		{"stops short", Point{X: 0, Y: 15}, Point{X: 9, Y: 15}, false},
		{"starts past", Point{X: 21, Y: 15}, Point{X: 30, Y: 15}, false},
		{"along edge", Point{X: 0, Y: 10}, Point{X: 30, Y: 10}, false},
		{"touches corner", Point{X: 0, Y: 20}, Point{X: 20, Y: 0}, false},
		{"vertical through", Point{X: 15, Y: 0}, Point{X: 15, Y: 30}, true},
		{"clips corner region", Point{X: 9, Y: 15}, Point{X: 15, Y: 21}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.SegmentIntersects(tt.p, tt.q); got != tt.want {
				t.Fatalf("SegmentIntersects(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			// Symmetry.
			if got := r.SegmentIntersects(tt.q, tt.p); got != tt.want {
				t.Fatalf("not symmetric for %v-%v", tt.p, tt.q)
			}
		})
	}
}

func TestSegmentIntersectsSamplingProperty(t *testing.T) {
	// Property: if any sampled interior point of the segment lies inside
	// the rect, SegmentIntersects must be true; if SegmentIntersects is
	// false, no sample may fall inside.
	r := Rect{MinX: -5, MinY: -5, MaxX: 5, MaxY: 5}
	check := func(x1, y1, x2, y2 int8) bool {
		p := Point{X: float64(x1), Y: float64(y1)}
		q := Point{X: float64(x2), Y: float64(y2)}
		hit := r.SegmentIntersects(p, q)
		sampleHit := false
		for i := 0; i <= 100; i++ {
			pt := Lerp(p, q, float64(i)/100)
			if r.contains(pt) {
				sampleHit = true
				break
			}
		}
		if sampleHit && !hit {
			return false // missed a genuine crossing
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
