package radio

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
)

// TestFastLog10Accuracy: the polynomial log10 must stay within a
// microscopic dB error of math.Log10 across the whole power range the
// channel ever converts, and must defer to math.Log10 exactly outside
// its domain.
func TestFastLog10Accuracy(t *testing.T) {
	var maxErr float64
	for x := 1e-30; x < 1e30; x *= 1.0003 {
		if err := math.Abs(10*fastLog10(x) - 10*math.Log10(x)); err > maxErr {
			maxErr = err
		}
	}
	if maxErr > 1e-7 {
		t.Errorf("fastLog10 dB error %v exceeds 1e-7", maxErr)
	}
	for _, x := range []float64{0, -1, math.Inf(-1), math.Inf(1)} {
		got, want := fastLog10(x), math.Log10(x)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("fastLog10(%v) = %v, want math.Log10's %v", x, got, want)
		}
	}
	if !math.IsNaN(fastLog10(math.NaN())) {
		t.Error("fastLog10(NaN) is not NaN")
	}
}

// TestSizeClassProperties: classes must cover every size from above by
// at most one √2 step, be idempotent (a class is its own class — the
// table key is stable) and monotone.
func TestSizeClassProperties(t *testing.T) {
	prev := 0
	for bytes := 0; bytes <= 4096; bytes++ {
		c := sizeClass(bytes)
		if c < bytes || c < 16 {
			t.Fatalf("sizeClass(%d) = %d, want >= max(bytes, 16)", bytes, c)
		}
		if bytes > 16 && c*128 > bytes*181 {
			t.Fatalf("sizeClass(%d) = %d overshoots the √2 step", bytes, c)
		}
		if sizeClass(c) != c {
			t.Fatalf("sizeClass not idempotent at %d: class %d reclassifies to %d", bytes, c, sizeClass(c))
		}
		if c < prev {
			t.Fatalf("sizeClass not monotone at %d: %d after %d", bytes, c, prev)
		}
		prev = c
	}
}

// TestPERTableAccuracy: the quantised table must match the exact PER
// curve within the documented ~1e-3 interpolation error across the cliff
// band, and clamp to (near-)exact endpoint values outside it.
func TestPERTableAccuracy(t *testing.T) {
	c := MustChannel(DefaultConfig())
	for _, mod := range Modulations() {
		for _, bytes := range []int{16, 181, 500, 1000, 2304} {
			e := c.FrameEdges(mod, bytes)
			tab := buildPERTable(mod, bytes, e)
			lo, hi := tab.lo, tab.lo+perTableBins/tab.invStep
			var maxErr float64
			for i := 0; i <= 4096; i++ {
				snr := lo + (hi-lo)*float64(i)/4096
				if err := math.Abs(tab.lookup(snr) - mod.PER(snr, bytes)); err > maxErr {
					maxErr = err
				}
			}
			if maxErr > 2e-3 {
				t.Errorf("%s/%dB: table error %v exceeds 2e-3", mod.Name, bytes, maxErr)
			}
			if got := tab.lookup(lo - 50); math.Abs(got-1) > 1e-9 {
				t.Errorf("%s/%dB: below-band lookup %v, want ~1", mod.Name, bytes, got)
			}
			if got := tab.lookup(hi + 50); got > 1e-9 {
				t.Errorf("%s/%dB: above-band lookup %v, want ~0", mod.Name, bytes, got)
			}
		}
	}
}

// TestFastFrameEdgesStayComparable: fast-mode edges carry a table
// pointer but must remain comparable and memoised, and two frame sizes
// in the same √2 class must share one table.
func TestFastFrameEdgesStayComparable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FastMode = true
	c := MustChannel(cfg)
	mod := Modulations()[0]
	a := c.FrameEdges(mod, 1000)
	if a.table == nil {
		t.Fatal("fast-mode edges carry no PER table")
	}
	if b := c.FrameEdges(mod, 1000); b != a {
		t.Error("memoised fast edges changed between calls")
	}
	// 1000 and 1100 share the 1187 class (16·(√2)^k ladder).
	if sizeClass(1000) == sizeClass(1100) {
		if b := c.FrameEdges(mod, 1100); b != a {
			t.Error("same size class produced distinct edge values")
		}
	} else {
		t.Fatalf("test premise broken: 1000 and 1100 classify apart (%d vs %d)",
			sizeClass(1000), sizeClass(1100))
	}
	exact := MustChannel(DefaultConfig()).FrameEdges(mod, 1000)
	if exact.table != nil {
		t.Error("exact-mode edges unexpectedly carry a table")
	}
}

// TestFastShadowHold: in fast mode the shadowing process holds its value
// for steps shorter than tau/16 without advancing its state, so a held
// read must not perturb the subsequent evolution.
func TestFastShadowHold(t *testing.T) {
	mk := func() *Channel {
		cfg := DefaultConfig()
		cfg.FastMode = true
		return MustChannel(cfg)
	}
	hold := DefaultConfig().ShadowTau / 16
	pa, pb := geom.Point{}, geom.Point{X: 120}
	const a, b = packet.NodeID(1), packet.NodeID(2)

	held := mk()
	t0 := time.Second
	v0 := meanRxPowerDBm(held, a, b, pa, pb, t0)
	if v1 := meanRxPowerDBm(held, a, b, pa, pb, t0+hold/2); v1 != v0 {
		t.Errorf("sample inside the hold window moved: %v then %v", v0, v1)
	}
	control := mk()
	if got := meanRxPowerDBm(control, a, b, pa, pb, t0); got != v0 {
		t.Fatalf("identically-seeded channels diverge at t0: %v vs %v", got, v0)
	}
	// The held read must leave the state exactly where the control's is.
	t1 := t0 + 4*DefaultConfig().ShadowTau
	if g, w := meanRxPowerDBm(held, a, b, pa, pb, t1), meanRxPowerDBm(control, a, b, pa, pb, t1); g != w {
		t.Errorf("held read perturbed the process: %v vs control %v", g, w)
	}
	// Exact mode has no hold: a short step re-samples.
	exact := MustChannel(DefaultConfig())
	e0 := meanRxPowerDBm(exact, a, b, pa, pb, t0)
	if e1 := meanRxPowerDBm(exact, a, b, pa, pb, t0+hold/2); e1 == e0 {
		t.Error("exact mode unexpectedly held the shadowing sample")
	}
}

// TestBatchMatchesSequential pins the batched kernels to the scalar
// decision path bit for bit, in both channel modes: gathering a
// transmission into SoA slices and sweeping
// BatchMeanRxPower/BatchResolve/BatchFinish must reproduce exactly what
// the per-receiver MeanRxPowerLinkDBm/ResolveFrame/FinishFrame loop
// computes, including the skip contract (a MAC-dropped receiver's stream
// is never touched at finish time).
func TestBatchMatchesSequential(t *testing.T) {
	for _, fastMode := range []bool{false, true} {
		name := "exact"
		if fastMode {
			name = "fast"
		}
		t.Run(name, func(t *testing.T) {
			mk := func() *Channel {
				cfg := DefaultConfig()
				cfg.FastMode = fastMode
				return MustChannel(cfg)
			}
			seq, bat := mk(), mk()
			mod := Modulations()[0]
			const bytes = 500
			const src = packet.NodeID(1)
			now := 250 * time.Millisecond

			// Distances spanning certain reception, the coin band and
			// certain loss; one receiver with interference, one skipped.
			dists := []float64{5, 40, 120, 300, 700, 1500, 3000}
			n := len(dists)
			srcPos := geom.Point{}
			dsts := make([]packet.NodeID, n)
			dstPos := make([]geom.Point, n)
			for i, d := range dists {
				dsts[i] = packet.NodeID(10 + i)
				dstPos[i] = geom.Point{X: d}
			}
			itf := make([]float64, n)
			skip := make([]bool, n)
			for i := range itf {
				itf[i] = math.Inf(-1)
			}
			itf[1] = -91 // finite interference: exercises the FinishFrame path
			skip[2] = true

			// Sequential arm.
			eSeq := seq.FrameEdges(mod, bytes)
			powSeq := make([]float64, n)
			drawSeq := make([]FrameDraw, n)
			decSeq := make([]FrameDecision, n)
			for i := range dists {
				l := seq.ShadowLink(src, dsts[i])
				powSeq[i] = seq.MeanRxPowerLinkDBm(l, dists[i], srcPos, dstPos[i], now)
			}
			for i := range dists {
				drawSeq[i] = seq.ResolveFrame(seq.FadeStream(src, dsts[i]), powSeq[i], eSeq, mod, bytes)
			}
			for i := range dists {
				if skip[i] {
					continue
				}
				d := drawSeq[i]
				decSeq[i] = seq.FinishFrame(seq.FadeStream(src, dsts[i]), &d, powSeq[i], itf[i], eSeq, mod, bytes)
			}

			// Batched arm on the identically-seeded channel.
			eBat := bat.FrameEdges(mod, bytes)
			links := make([]*ShadowLink, n)
			streams := make([]*FadeStream, n)
			for i := range dists {
				links[i] = bat.ShadowLink(src, dsts[i])
				streams[i] = bat.FadeStream(src, dsts[i])
			}
			powBat := make([]float64, n)
			drawBat := make([]FrameDraw, n)
			decBat := make([]FrameDecision, n)
			bat.BatchMeanRxPower(links, dists, srcPos, dstPos, now, powBat)
			bat.BatchResolve(streams, powBat, eBat, mod, bytes, drawBat)
			bat.BatchFinish(streams, drawBat, powBat, itf, skip, eBat, mod, bytes, decBat)

			sawCoin := false
			for i := range dists {
				if powBat[i] != powSeq[i] {
					t.Errorf("dst %d: mean power %v, sequential %v", i, powBat[i], powSeq[i])
				}
				if drawBat[i] != drawSeq[i] {
					t.Errorf("dst %d: draw %+v, sequential %+v", i, drawBat[i], drawSeq[i])
				}
				if skip[i] {
					if decBat[i] != (FrameDecision{}) {
						t.Errorf("dst %d: skipped receiver's decision written: %+v", i, decBat[i])
					}
					continue
				}
				if decBat[i] != decSeq[i] {
					t.Errorf("dst %d: decision %+v, sequential %+v", i, decBat[i], decSeq[i])
				}
				sawCoin = sawCoin || drawBat[i].HasCoin
			}
			if !sawCoin {
				t.Fatal("distance sweep never hit the coin band — the comparison is vacuous")
			}
			// Both arms' streams must be in lockstep afterwards, including
			// the skipped receiver's (its finish drew nothing on either arm).
			for i := range dists {
				g := bat.FadeStream(src, dsts[i]).rng.Float64()
				w := seq.FadeStream(src, dsts[i]).rng.Float64()
				if g != w {
					t.Errorf("dst %d: stream diverged after batch round (%v vs %v)", i, g, w)
				}
			}
		})
	}
}

// BenchmarkBatchResolve: the batched frame-resolution kernel on a
// 64-receiver candidate set whose mean powers span certain loss, the
// coin band and certain reception — the per-transmission shape the
// medium hands it. The exact/fast pair tracks what the PER table and
// polynomial log10 buy on the kernel itself.
func BenchmarkBatchResolve(b *testing.B) {
	for _, fastMode := range []bool{false, true} {
		name := "exact"
		if fastMode {
			name = "fast"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.FastMode = fastMode
			c := MustChannel(cfg)
			mod := Modulations()[0]
			const bytes = 1000
			e := c.FrameEdges(mod, bytes)
			const n = 64
			streams := make([]*FadeStream, n)
			pows := make([]float64, n)
			for i := 0; i < n; i++ {
				streams[i] = c.FadeStream(1, packet.NodeID(2+i))
				pows[i] = -120 + 60*float64(i)/float64(n-1)
			}
			draws := make([]FrameDraw, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.BatchResolve(streams, pows, e, mod, bytes, draws)
			}
		})
	}
}
