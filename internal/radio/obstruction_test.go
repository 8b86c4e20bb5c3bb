package radio

import (
	"testing"

	"repro/internal/geom"
)

func TestObstructionAttenuatesLink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	wall := geom.Rect{MinX: 40, MinY: -10, MaxX: 60, MaxY: 10}
	cfg.ObstructionDB = func(a, b geom.Point) float64 {
		if wall.SegmentIntersects(a, b) {
			return 30
		}
		return 0
	}
	c := MustChannel(cfg)

	// Link crossing the wall: 30 dB weaker than the clear link of equal
	// length.
	blocked := meanRxPowerDBm(c, 1, 2, geom.Point{X: 0}, geom.Point{X: 100}, 0)
	clear := meanRxPowerDBm(c, 1, 3, geom.Point{X: 0, Y: 50}, geom.Point{X: 100, Y: 50}, 0)
	if got := clear - blocked; got < 29.9 || got > 30.1 {
		t.Fatalf("obstruction delta = %v dB, want 30", got)
	}
}

func TestNilObstructionIsTransparent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShadowSigmaDB = 0
	cfg.FadingK = -1
	cfg.ObstructionDB = nil
	c := MustChannel(cfg)
	p1 := meanRxPowerDBm(c, 1, 2, geom.Point{}, geom.Point{X: 100}, 0)
	cfg2 := cfg
	cfg2.ObstructionDB = func(a, b geom.Point) float64 { return 0 }
	c2 := MustChannel(cfg2)
	p2 := meanRxPowerDBm(c2, 1, 2, geom.Point{}, geom.Point{X: 100}, 0)
	if p1 != p2 {
		t.Fatalf("zero obstruction changed power: %v vs %v", p1, p2)
	}
}
