package radio

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestFreeSpaceKnownValues(t *testing.T) {
	m := FreeSpace{FreqHz: 2.4e9}
	// Friis at 2.4 GHz: ~40 dB at 1 m, +20 dB per decade.
	at1 := m.LossDB(1)
	if math.Abs(at1-40.05) > 0.2 {
		t.Fatalf("LossDB(1) = %v, want ~40.05", at1)
	}
	if got := m.LossDB(10) - at1; math.Abs(got-20) > 1e-9 {
		t.Fatalf("decade slope = %v dB, want 20", got)
	}
	if got := m.LossDB(0.1); got != at1 {
		t.Fatalf("sub-metre distance not clamped: %v != %v", got, at1)
	}
}

func TestLogDistanceSlopeAndContinuity(t *testing.T) {
	m := LogDistance{FreqHz: 2.4e9, RefDist: 1, Exponent: 3}
	if got := m.LossDB(10) - m.LossDB(1); math.Abs(got-30) > 1e-9 {
		t.Fatalf("decade slope = %v dB, want 30", got)
	}
	fs := FreeSpace{FreqHz: 2.4e9}
	if math.Abs(m.LossDB(1)-fs.LossDB(1)) > 1e-9 {
		t.Fatal("log-distance should equal free space at reference distance")
	}
	// Zero RefDist defaults to 1 m.
	m2 := LogDistance{FreqHz: 2.4e9, Exponent: 3}
	if math.Abs(m2.LossDB(100)-m.LossDB(100)) > 1e-9 {
		t.Fatal("RefDist default not applied")
	}
}

func TestTwoRayCrossoverContinuity(t *testing.T) {
	m := TwoRay{FreqHz: 2.4e9, TxH: 5, RxH: 1.5}
	dc := m.crossover()
	if dc <= 0 {
		t.Fatalf("crossover = %v", dc)
	}
	below := m.LossDB(dc * 0.999)
	above := m.LossDB(dc * 1.001)
	if math.Abs(below-above) > 0.1 {
		t.Fatalf("discontinuity at crossover: %v vs %v", below, above)
	}
	// 40 dB/decade beyond crossover.
	if got := m.LossDB(dc*100) - m.LossDB(dc*10); math.Abs(got-40) > 1e-6 {
		t.Fatalf("far slope = %v dB/decade, want 40", got)
	}
}

func TestPathLossMonotoneProperty(t *testing.T) {
	models := []PathLoss{
		FreeSpace{FreqHz: 2.4e9},
		LogDistance{FreqHz: 2.4e9, RefDist: 1, Exponent: 2.8},
		TwoRay{FreqHz: 2.4e9, TxH: 5, RxH: 1.5},
	}
	check := func(d1, d2 uint16) bool {
		a, b := float64(d1)+1, float64(d2)+1
		if a > b {
			a, b = b, a
		}
		for _, m := range models {
			if m.LossDB(a) > m.LossDB(b)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestShadowProcessStatistics(t *testing.T) {
	rng := sim.Stream(1, "test-shadow")
	p := newShadowProcess(6, time.Second, rng, 36)
	var sum, sumSq float64
	n := 20000
	// Sample far apart so draws are nearly independent.
	for i := 0; i < n; i++ {
		v := p.sample(time.Duration(i) * 100 * time.Second)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.2 {
		t.Fatalf("shadow mean = %v, want ~0", mean)
	}
	if math.Abs(sd-6) > 0.2 {
		t.Fatalf("shadow sd = %v, want ~6", sd)
	}
}

func TestShadowProcessCorrelation(t *testing.T) {
	rng := sim.Stream(2, "test-shadow")
	p := newShadowProcess(6, 10*time.Second, rng, 36)
	v0 := p.sample(0)
	v1 := p.sample(time.Millisecond) // dt << tau: nearly identical
	if math.Abs(v1-v0) > 0.5 {
		t.Fatalf("short-lag samples differ too much: %v vs %v", v0, v1)
	}
	// Same-instant re-sample returns the same value.
	if got := p.sample(time.Millisecond); got != v1 {
		t.Fatalf("same-time re-sample changed: %v vs %v", got, v1)
	}
}

func TestShadowProcessZeroSigma(t *testing.T) {
	p := newShadowProcess(0, time.Second, sim.Stream(1, "x"), 0)
	for i := 0; i < 10; i++ {
		if v := p.sample(time.Duration(i) * time.Second); v != 0 {
			t.Fatalf("zero-sigma sample = %v", v)
		}
	}
}

func TestShadowProcessZeroTauIID(t *testing.T) {
	p := newShadowProcess(6, 0, sim.Stream(3, "x"), 36)
	a := p.sample(time.Second)
	b := p.sample(2 * time.Second)
	if a == b {
		t.Fatal("zero-tau process returned identical consecutive samples")
	}
}

func TestShadowFieldReciprocity(t *testing.T) {
	f := newShadowField(6, time.Second, 42, 36)
	ab := f.sample(1, 2, time.Second)
	ba := f.sample(2, 1, time.Second)
	if ab != ba {
		t.Fatalf("shadowing not reciprocal: %v vs %v", ab, ba)
	}
	// Different link gets an independent process.
	ac := f.sample(1, 3, time.Second)
	if ac == ab {
		t.Fatal("distinct links share shadowing state")
	}
}

func TestShadowFieldDeterministicAcrossCreationOrder(t *testing.T) {
	f1 := newShadowField(6, time.Second, 7, 36)
	f2 := newShadowField(6, time.Second, 7, 36)
	// Touch links in different orders; per-link streams must not shift.
	a1 := f1.sample(1, 2, time.Second)
	_ = f1.sample(3, 4, 2*time.Second)
	_ = f2.sample(3, 4, time.Second)
	a2 := f2.sample(1, 2, time.Second)
	if a1 != a2 {
		t.Fatalf("link stream depends on creation order: %v vs %v", a1, a2)
	}
}

func TestFadingUnitMeanProperty(t *testing.T) {
	rng := sim.Stream(5, "fade")
	for _, k := range []float64{0, 1, 5} {
		var sum float64
		n := 50000
		for i := 0; i < n; i++ {
			sum += math.Pow(10, fadingGainDB(rng, k)/10)
		}
		mean := sum / float64(n)
		if math.Abs(mean-1) > 0.03 {
			t.Fatalf("K=%v: mean power gain = %v, want ~1", k, mean)
		}
	}
}

func TestRicianLessVariableThanRayleigh(t *testing.T) {
	rng := sim.Stream(6, "fade")
	variance := func(k float64) float64 {
		var sum, sumSq float64
		n := 30000
		for i := 0; i < n; i++ {
			g := math.Pow(10, fadingGainDB(rng, k)/10)
			sum += g
			sumSq += g * g
		}
		m := sum / float64(n)
		return sumSq/float64(n) - m*m
	}
	if vRay, vRice := variance(0), variance(10); vRice >= vRay {
		t.Fatalf("Rician K=10 variance %v >= Rayleigh %v", vRice, vRay)
	}
}

func TestModulationBERMonotone(t *testing.T) {
	for _, m := range Modulations() {
		prev := 1.0
		for snr := -10.0; snr <= 30; snr += 0.5 {
			b := m.BER(snr)
			if b < 0 || b > 0.5 {
				t.Fatalf("%s: BER(%v) = %v out of range", m.Name, snr, b)
			}
			if b > prev+1e-12 {
				t.Fatalf("%s: BER not monotone at %v dB", m.Name, snr)
			}
			prev = b
		}
	}
}

func TestPERBounds(t *testing.T) {
	m := DSSS1Mbps
	if got := m.PER(30, 1000); got > 1e-6 {
		t.Fatalf("PER at 30 dB = %v, want ~0", got)
	}
	if got := m.PER(-20, 1000); got < 0.999 {
		t.Fatalf("PER at -20 dB = %v, want ~1", got)
	}
	if got := m.PER(10, 0); got != 0 {
		t.Fatalf("PER of empty frame = %v", got)
	}
	// Longer frames fail more often at equal SNR.
	if m.PER(5, 2000) <= m.PER(5, 100) {
		t.Fatal("longer frame should have higher PER")
	}
}

func TestAirtime(t *testing.T) {
	// 1000 bytes at 1 Mb/s = 8 ms + 192 us preamble.
	got := DSSS1Mbps.Airtime(1000)
	want := 0.008192
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Airtime = %v, want %v", got, want)
	}
	if CCK11Mbps.Airtime(1000) >= got {
		t.Fatal("11 Mb/s airtime should be shorter than 1 Mb/s")
	}
}

func TestModulationByName(t *testing.T) {
	m, err := ModulationByName("DSSS-DBPSK-1Mbps")
	if err != nil || m.BitRate != 1e6 {
		t.Fatalf("ModulationByName: %v, %v", m, err)
	}
	if _, err := ModulationByName("nope"); err == nil {
		t.Fatal("unknown modulation accepted")
	}
}

func TestSINRdB(t *testing.T) {
	// No interference: SINR = rx - noise.
	if got := SINRdB(-70, -94, math.Inf(-1)); math.Abs(got-24) > 1e-9 {
		t.Fatalf("SINR = %v, want 24", got)
	}
	// Interference equal to noise halves the denominator's dB by 3.
	if got := SINRdB(-70, -94, -94); math.Abs(got-21) > 0.02 {
		t.Fatalf("SINR with equal interference = %v, want ~21", got)
	}
}

func TestCombineDBm(t *testing.T) {
	if got := CombineDBm(-90, math.Inf(-1)); got != -90 {
		t.Fatalf("CombineDBm with -inf = %v", got)
	}
	if got := CombineDBm(math.Inf(-1), -90); got != -90 {
		t.Fatalf("CombineDBm with -inf first = %v", got)
	}
	// Equal powers sum to +3 dB.
	if got := CombineDBm(-90, -90); math.Abs(got-(-87.0)) > 0.02 {
		t.Fatalf("CombineDBm(-90,-90) = %v, want ~-87", got)
	}
}

func TestNewChannelValidation(t *testing.T) {
	if _, err := NewChannel(Config{}); err == nil {
		t.Fatal("nil path loss accepted")
	}
	cfg := DefaultConfig()
	cfg.ShadowSigmaDB = -1
	if _, err := NewChannel(cfg); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if _, err := NewChannel(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestChannelRxPowerDecreasesWithDistance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShadowSigmaDB = 0 // isolate path loss
	c := MustChannel(cfg)
	near := c.MeanRxPowerDBm(1, 2, geom.Point{}, geom.Point{X: 10}, 0)
	far := c.MeanRxPowerDBm(1, 2, geom.Point{}, geom.Point{X: 100}, 0)
	if far >= near {
		t.Fatalf("rx power at 100 m (%v) >= at 10 m (%v)", far, near)
	}
}

// decide runs one interference-free frame through the medium's decision
// path: ResolveFrame on the link's fade stream, then FinishFrame.
func decide(c *Channel, s *FadeStream, meanRxDBm float64, mod Modulation, bytes int) FrameDecision {
	e := c.FrameEdges(mod, bytes)
	d := c.ResolveFrame(s, meanRxDBm, e, mod, bytes)
	return c.FinishFrame(s, &d, meanRxDBm, math.Inf(-1), e, mod, bytes)
}

func TestChannelDeterminism(t *testing.T) {
	run := func() []float64 {
		c := MustChannel(DefaultConfig())
		s := c.FadeStream(1, 2)
		var out []float64
		for i := 0; i < 50; i++ {
			now := time.Duration(i) * 100 * time.Millisecond
			p := c.MeanRxPowerDBm(1, 2, geom.Point{}, geom.Point{X: float64(50 + i)}, now)
			d := decide(c, s, p, DSSS1Mbps, 1000)
			out = append(out, p, d.RxPowerDBm, boolToF(d.Received))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("channel not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestDecideFrameExtremes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FadingK = -1 // disable fading for exactness
	c := MustChannel(cfg)
	s := c.FadeStream(1, 2)
	strong := decide(c, s, -40, DSSS1Mbps, 1000)
	if !strong.Received || strong.PER > 1e-9 {
		t.Fatalf("strong frame lost: %+v", strong)
	}
	weak := decide(c, s, -120, DSSS1Mbps, 1000)
	if weak.Received || weak.PER < 0.999 {
		t.Fatalf("weak frame received: %+v", weak)
	}
}

func TestDecideFrameEmpiricalLossMatchesPER(t *testing.T) {
	// At a power level with intermediate PER and fading disabled, the
	// empirical loss fraction must converge to the analytic PER.
	cfg := DefaultConfig()
	cfg.FadingK = -1
	cfg.ShadowSigmaDB = 0
	c := MustChannel(cfg)
	// Find a mean power with PER near 0.4.
	target := 0.4
	lo, hi := -120.0, -40.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		per := DSSS1Mbps.PER(SINRdB(mid, cfg.NoiseFloorDBm, math.Inf(-1)), 1000)
		if per > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	power := (lo + hi) / 2
	wantPER := DSSS1Mbps.PER(SINRdB(power, cfg.NoiseFloorDBm, math.Inf(-1)), 1000)
	s := c.FadeStream(1, 2)
	losses := 0
	n := 20000
	for i := 0; i < n; i++ {
		if !decide(c, s, power, DSSS1Mbps, 1000).Received {
			losses++
		}
	}
	got := float64(losses) / float64(n)
	if math.Abs(got-wantPER) > 0.02 {
		t.Fatalf("empirical loss %v, analytic PER %v", got, wantPER)
	}
}

func BenchmarkMeanRxPower(b *testing.B) {
	c := MustChannel(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.MeanRxPowerDBm(1, 2, geom.Point{}, geom.Point{X: 120}, time.Duration(i))
	}
}
