package radio

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
)

// TestBatchMatchesSequential pins the batched kernels to the scalar
// decision path bit for bit: gathering a transmission into SoA slices
// and sweeping BatchMeanRxPower/BatchResolve/BatchFinish must reproduce
// exactly what the per-receiver
// MeanRxPowerLinkDBm/ResolveFrame/FinishFrame loop computes, including
// the skip contract (a MAC-dropped receiver's stream is never touched at
// finish time). The subtest names the channel mode it checks: exact,
// the one decision path.
func TestBatchMatchesSequential(t *testing.T) {
	t.Run("exact", batchMatchesSequential)
}

func batchMatchesSequential(t *testing.T) {
	seq, bat := MustChannel(DefaultConfig()), MustChannel(DefaultConfig())
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
}

// BenchmarkBatchResolve: the batched frame-resolution kernel on a
// 64-receiver candidate set whose mean powers span certain loss, the
// coin band and certain reception — the per-transmission shape the
// medium hands it.
func BenchmarkBatchResolve(b *testing.B) {
	c := MustChannel(DefaultConfig())
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
}
