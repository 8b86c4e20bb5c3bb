package radio

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/sim"
)

// lossBits pins the path-loss law to exact float64 bits: the values the
// former LogDistance{FreqHz: 2.4e9, RefDist: 1, Exponent: n}.LossDB model
// returned at lossBitsDists, for every exponent a scenario or test
// configures. Any change to the law's arithmetic — term order, the
// precomputed constants, the clamp — moves a bit here before it moves an
// output byte.
var (
	lossBitsDists = []float64{0.5, 1, 1.5, 37.5, 250, 1e4}
	lossBits      = []struct {
		exponent float64
		bits     []uint64
	}{
		{3.0, []uint64{0x404406f0d6e0d438, 0x404406f0d6e0d438, 0x4046ab21973629c8, 0x4055d19c44b5b44c, 0x405bff83e48b0984, 0x406401bc35b8350e}},
		{3.2, []uint64{0x404406f0d6e0d438, 0x404406f0d6e0d438, 0x4046d835e84ceb38, 0x40569b161ffe971c, 0x405d327397488b9c, 0x406501bc35b8350e}},
		{3.8, []uint64{0x404406f0d6e0d438, 0x404406f0d6e0d438, 0x40475f72db912f87, 0x4058f783b1d93f8c, 0x406065a157c088f2, 0x406801bc35b8350e}},
		{4.0, []uint64{0x404406f0d6e0d438, 0x404406f0d6e0d438, 0x40478c872ca7f0f7, 0x4059c0fd8d22225c, 0x4060ff19311f49fe, 0x406901bc35b8350e}},
		{4.2, []uint64{0x404406f0d6e0d438, 0x404406f0d6e0d438, 0x4047b99b7dbeb267, 0x405a8a77686b052c, 0x406198910a7e0b0a, 0x406a01bc35b8350e}},
		{4.5, []uint64{0x404406f0d6e0d438, 0x404406f0d6e0d438, 0x4047fd39f760d48f, 0x405bb8ae31585964, 0x40627ec4d08c2c9c, 0x406b81bc35b8350e}},
	}
)

func TestPathLossBits(t *testing.T) {
	for _, row := range lossBits {
		l := newLogDistance(row.exponent)
		for i, d := range lossBitsDists {
			if got := math.Float64bits(l.lossDB(d)); got != row.bits[i] {
				t.Errorf("n=%v d=%v: loss bits %#016x, want %#016x", row.exponent, d, got, row.bits[i])
			}
		}
	}
}

// TestFreeSpaceKnownValues checks the law at exponent 2, where it is the
// Friis free-space model: ~40.05 dB at 2.4 GHz and 1 m, +20 dB per decade,
// and sub-metre distances clamped to the 1 m reference.
func TestFreeSpaceKnownValues(t *testing.T) {
	fs := newLogDistance(2)
	at1 := fs.lossDB(1)
	if math.Abs(at1-40.05) > 0.2 {
		t.Fatalf("lossDB(1) = %v, want ~40.05", at1)
	}
	if got := fs.lossDB(10) - at1; math.Abs(got-20) > 1e-9 {
		t.Fatalf("decade slope = %v dB, want 20", got)
	}
	if got := fs.lossDB(0.1); got != at1 {
		t.Fatalf("sub-metre distance not clamped: %v != %v", got, at1)
	}
}

// TestLogDistanceSlopeAndContinuity checks 10·n dB per decade beyond the
// reference, and that the law meets free space at the 1 m reference with
// no step on either side of it.
func TestLogDistanceSlopeAndContinuity(t *testing.T) {
	l := newLogDistance(3)
	at1 := l.lossDB(1)
	if got := l.lossDB(10) - at1; math.Abs(got-30) > 1e-9 {
		t.Fatalf("decade slope = %v dB, want 30", got)
	}
	if got := l.lossDB(1000) - l.lossDB(100); math.Abs(got-30) > 1e-9 {
		t.Fatalf("far decade slope = %v dB, want 30", got)
	}
	if fs := newLogDistance(2).lossDB(1); math.Abs(at1-fs) > 1e-9 {
		t.Fatalf("lossDB(1) = %v, want free-space %v at the reference distance", at1, fs)
	}
	if got := l.lossDB(1.000001) - at1; got < 0 || got > 1e-4 {
		t.Fatalf("step of %v dB just beyond the reference distance", got)
	}
	if got := l.lossDB(0.1); got != at1 {
		t.Fatalf("sub-metre distance not clamped: %v != %v", got, at1)
	}
}

func TestPathLossMonotoneProperty(t *testing.T) {
	laws := []logDistance{newLogDistance(2.8), newLogDistance(3.8), newLogDistance(4.5)}
	check := func(d1, d2 uint16) bool {
		a, b := float64(d1)/8, float64(d2)/8
		if a > b {
			a, b = b, a
		}
		for _, l := range laws {
			if l.lossDB(a) > l.lossDB(b)+1e-9 {
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

// TestModulationByName: the built-in modulations are told apart by
// name — trace and report labels print it — and the paper's 1 Mb/s rate
// is among them under its name.
func TestModulationByName(t *testing.T) {
	byName := make(map[string]Modulation)
	for _, m := range Modulations() {
		if _, dup := byName[m.Name]; dup {
			t.Fatalf("modulation name %q used twice", m.Name)
		}
		byName[m.Name] = m
	}
	if m, ok := byName["DSSS-DBPSK-1Mbps"]; !ok || m.BitRate != 1e6 {
		t.Fatalf("DSSS-DBPSK-1Mbps: %+v, found=%v", m, ok)
	}
}

// SINRdB combines a received frame power with noise plus an aggregate
// interference power (both dBm; interferenceDBm may be math.Inf(-1) for
// none): the reference formula the tests check the channel's SINR and
// PER against.
func SINRdB(rxPowerDBm, noiseDBm, interferenceDBm float64) float64 {
	noiseLin := math.Pow(10, noiseDBm/10)
	intLin := 0.0
	if !math.IsInf(interferenceDBm, -1) {
		intLin = math.Pow(10, interferenceDBm/10)
	}
	return rxPowerDBm - 10*math.Log10(noiseLin+intLin)
}

// meanRxPowerDBm is MeanRxPowerLinkDBm for an unordered node pair, the
// per-frame reference the tests probe the large-scale power through.
func meanRxPowerDBm(c *Channel, a, b packet.NodeID, pa, pb geom.Point, now time.Duration) float64 {
	return c.MeanRxPowerLinkDBm(c.ShadowLink(a, b), pa.Dist(pb), pa, pb, now)
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
		t.Fatal("zero path-loss exponent accepted")
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
	near := meanRxPowerDBm(c, 1, 2, geom.Point{}, geom.Point{X: 10}, 0)
	far := meanRxPowerDBm(c, 1, 2, geom.Point{}, geom.Point{X: 100}, 0)
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
			p := meanRxPowerDBm(c, 1, 2, geom.Point{}, geom.Point{X: float64(50 + i)}, now)
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
		meanRxPowerDBm(c, 1, 2, geom.Point{}, geom.Point{X: 120}, time.Duration(i))
	}
}
