package traffic

import (
	"math"
	"testing"
)

func TestIDMFreeRoad(t *testing.T) {
	p := DefaultDriver()
	// From standstill on an empty road: full throttle.
	if a := p.idmAccel(0, 0, math.Inf(1), 15); math.Abs(a-p.MaxAccelMPS2) > 1e-9 {
		t.Fatalf("standstill free accel = %v, want %v", a, p.MaxAccelMPS2)
	}
	// At the desired speed: no acceleration.
	if a := p.idmAccel(15, 0, math.Inf(1), 15); math.Abs(a) > 1e-9 {
		t.Fatalf("at-v0 free accel = %v, want 0", a)
	}
	// Above the desired speed: deceleration.
	if a := p.idmAccel(20, 0, math.Inf(1), 15); a >= 0 {
		t.Fatalf("over-v0 accel = %v, want < 0", a)
	}
}

func TestIDMEquilibriumGap(t *testing.T) {
	p := DefaultDriver()
	for _, v := range []float64{3, 8, 13} {
		gap := equilibriumGap(p, v, 15)
		if a := p.idmAccel(v, v, gap, 15); math.Abs(a) > 1e-9 {
			t.Fatalf("v=%v: accel at equilibrium gap %v = %v, want 0", v, gap, a)
		}
	}
	// At v0 the free term vanishes: no finite gap reaches equilibrium.
	if g := equilibriumGap(p, 15, 15); !math.IsInf(g, 1) {
		t.Fatalf("equilibriumGap(v0) = %v, want +Inf", g)
	}
}

func TestIDMBrakesHardWhenClosing(t *testing.T) {
	p := DefaultDriver()
	// Closing at 10 m/s on a stopped leader 15 m ahead demands far more
	// than comfortable braking.
	a := p.idmAccel(10, 0, 15, 15)
	if a > -p.ComfortDecelMPS2 {
		t.Fatalf("closing accel = %v, want < %v", a, -p.ComfortDecelMPS2)
	}
	// A vanishing gap is survivable (clamped), not NaN/Inf.
	if a := p.idmAccel(5, 0, 0, 15); math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("zero-gap accel = %v", a)
	}
}

func TestIDMGapMonotonicity(t *testing.T) {
	p := DefaultDriver()
	prev := math.Inf(-1)
	for gap := 2.0; gap <= 200; gap += 2 {
		a := p.idmAccel(10, 10, gap, 15)
		if a < prev {
			t.Fatalf("accel not monotone in gap at %v: %v < %v", gap, a, prev)
		}
		prev = a
	}
}

func TestDriverValidate(t *testing.T) {
	bad := []func(*DriverParams){
		func(p *DriverParams) { p.DesiredSpeedMPS = 0 },
		func(p *DriverParams) { p.TimeHeadwayS = -1 },
		func(p *DriverParams) { p.MinGapM = 0 },
		func(p *DriverParams) { p.MaxAccelMPS2 = 0 },
		func(p *DriverParams) { p.ComfortDecelMPS2 = 0 },
		func(p *DriverParams) { p.LengthM = 0 },
	}
	for i, mutate := range bad {
		p := DefaultDriver()
		mutate(&p)
		if err := p.validate(); err == nil {
			t.Fatalf("case %d: invalid driver accepted", i)
		}
	}
	p := DefaultDriver()
	if err := p.validate(); err != nil {
		t.Fatalf("default driver rejected: %v", err)
	}
}
