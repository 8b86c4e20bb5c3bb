package radio

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func horizonChannel(t *testing.T) *Channel {
	t.Helper()
	cfg := DefaultConfig()
	c, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCertainLossFloorSaturatesPER verifies the floor's defining property:
// at the floor plus the maximum fading boost, the PER computes to exactly
// 1.0, so the reception coin (Float64() >= PER, Float64() < 1) can never
// land. Just above the floor the PER must leave saturation — the floor is
// tight, not just safe.
func TestCertainLossFloorSaturatesPER(t *testing.T) {
	c := horizonChannel(t)
	for _, mod := range Modulations() {
		for _, bytes := range []int{20, 60, 1020, 2324} {
			floor := c.CertainLossFloorDBm(mod, bytes)
			if math.IsInf(floor, -1) {
				t.Fatalf("%s/%dB: no certain-loss floor", mod.Name, bytes)
			}
			atFloor := floor + c.FadeClampDB() - c.NoiseFloorDBm()
			if per := mod.PER(atFloor, bytes); per < 1 {
				t.Fatalf("%s/%dB: PER at floor = %v, want exactly 1", mod.Name, bytes, per)
			}
			above := floor + 1 + c.FadeClampDB() - c.NoiseFloorDBm()
			if per := mod.PER(above, bytes); per >= 1 {
				t.Fatalf("%s/%dB: PER still saturated 1 dB above the floor", mod.Name, bytes)
			}
		}
	}
}

// TestCertainLossFloorTinyFrames: frames small enough that PER never
// saturates (BER caps at 0.5) must yield an infinite horizon, not a bogus
// finite one.
func TestCertainLossFloorTinyFrames(t *testing.T) {
	c := horizonChannel(t)
	floor := c.CertainLossFloorDBm(DSSS1Mbps, 2)
	if !math.IsInf(floor, -1) {
		t.Fatalf("2-byte frame got finite floor %v", floor)
	}
	if r := c.MaxRangeM(floor); !math.IsInf(r, 1) {
		t.Fatalf("infinite floor got finite range %v", r)
	}
}

// TestMaxRangeBrackets checks that the returned distance brackets the
// budget edge: just inside the range the mean power plus max shadow boost
// is at or above the floor, and at the range it is at or below it.
func TestMaxRangeBrackets(t *testing.T) {
	c := horizonChannel(t)
	floor := -120.0
	r := c.MaxRangeM(floor)
	if math.IsInf(r, 1) || r <= 1 {
		t.Fatalf("MaxRangeM(%v) = %v", floor, r)
	}
	cfg := c.Config()
	at := func(d float64) float64 { return cfg.TxPowerDBm - cfg.PathLoss.LossDB(d) + c.ShadowClampDB() }
	if p := at(r - 0.01); p < floor-1e-9 {
		t.Fatalf("power just inside range %v below floor: %v < %v", r, p, floor)
	}
	if p := at(r + 0.01); p > floor+1e-9 {
		t.Fatalf("power just beyond range %v above floor: %v > %v", r, p, floor)
	}
	// Lower floors reach further.
	if r2 := c.MaxRangeM(floor - 20); r2 <= r {
		t.Fatalf("range not monotone in floor: %v !> %v", r2, r)
	}
	if r := c.MaxRangeM(math.Inf(-1)); !math.IsInf(r, 1) {
		t.Fatalf("-Inf floor: range %v", r)
	}
	if r := c.MaxRangeM(cfg.TxPowerDBm + c.ShadowClampDB() + 1); r != 0 {
		t.Fatalf("unreachable floor: range %v, want 0", r)
	}
}

// TestBeyondMaxRangeNeverReceives is the end-to-end losslessness property
// the medium's culling rests on: at any distance beyond
// MaxRangeM(CertainLossFloorDBm), even the maximum shadowing boost leaves
// every frame with PER exactly 1, so the frame decision can never report
// a reception — no matter how the link's fade stream lands.
func TestBeyondMaxRangeNeverReceives(t *testing.T) {
	c := horizonChannel(t)
	mod, bytes := DSSS1Mbps, 1020
	floor := c.CertainLossFloorDBm(mod, bytes)
	r := c.MaxRangeM(floor)
	cfg := c.Config()
	s := c.FadeStream(1, 2)
	for _, d := range []float64{r + 0.01, r * 1.5, r * 10} {
		meanRx := cfg.TxPowerDBm - cfg.PathLoss.LossDB(d) + c.ShadowClampDB()
		for i := 0; i < 2000; i++ {
			dec := decide(c, s, meanRx, mod, bytes)
			if dec.PER < 1 || dec.Received {
				t.Fatalf("d=%v (range %v): received frame, PER=%v", d, r, dec.PER)
			}
		}
	}
}

// TestShadowSampleClamped: a process with a tight clamp never emits beyond
// it, while the default clamp leaves ordinary samples untouched.
func TestShadowSampleClamped(t *testing.T) {
	p := newShadowProcess(6, 0, sim.Stream(9, "clamp"), 2)
	for i := 0; i < 5000; i++ {
		if v := p.sample(time.Duration(i) * time.Second); math.Abs(v) > 2 {
			t.Fatalf("sample %v beyond clamp", v)
		}
	}
}

// TestFadingSampleClamped: the fade gains ResolveFrame draws respect the
// clamp. The clamp is lowered to 1.5 dB on the built channel so 20k
// draws reach it.
func TestFadingSampleClamped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FadingK = 0 // Rayleigh: the heaviest upper tail
	c, err := NewChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.fadeClampDB = 1.5
	s := c.FadeStream(1, 2)
	e := c.FrameEdges(DSSS1Mbps, 1000)
	hit := false
	for i := 0; i < 20000; i++ {
		g := c.ResolveFrame(s, -80, e, DSSS1Mbps, 1000).FadeDB
		if g > 1.5 {
			t.Fatalf("fade sample %v beyond clamp", g)
		}
		if g == 1.5 {
			hit = true
		}
	}
	if !hit {
		t.Fatal("1.5 dB clamp never engaged over 20k Rayleigh draws")
	}
}
