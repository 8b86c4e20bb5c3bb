package radio

import (
	"math"
	"time"

	"repro/internal/geom"
)

// This file is the batched, structure-of-arrays face of the decision
// engine: the medium gathers one transmission's candidate set into
// parallel slices (shadow handles, distances, fade streams, mean rx
// powers, interference terms) and the kernels below sweep each stage
// over the whole batch. The decomposition in decision.go already made
// per-receiver resolution order-independent, which is what makes the
// batch split safe: each receiver's directed-link stream still sees
// exactly the draws ResolveFrame/FinishFrame would make, in the same
// per-link order (fade in the classify pass, coin in the in-band pass),
// so the batch stays byte-identical to the one-receiver-at-a-time
// loops it replaced. Hoisting the per-stage constants and splitting the
// passes keeps the transcendental calls pipelining instead of
// alternating with map lookups and branch-heavy MAC bookkeeping.

// BatchMeanRxPower fills out[i] with the mean rx power (path loss +
// shadowing + obstruction) from src to each receiver, bit-identical to
// MeanRxPowerLinkDBm per element. links, dists, dsts and out must share
// a length; dists[i] must equal src.Dist(dsts[i]). Simulation-loop only
// (it advances the pairs' shadowing processes).
func (c *Channel) BatchMeanRxPower(links []*ShadowLink, dists []float64, src geom.Point, dsts []geom.Point, now time.Duration, out []float64) {
	tx, loss := c.cfg.TxPowerDBm, c.loss
	if obs := c.cfg.ObstructionDB; obs != nil {
		for i, l := range links {
			p := tx - loss.lossDB(dists[i]) + (*shadowProcess)(l).sample(now)
			p -= obs(src, dsts[i])
			out[i] = p
		}
		return
	}
	for i, l := range links {
		out[i] = tx - loss.lossDB(dists[i]) + (*shadowProcess)(l).sample(now)
	}
}

// BatchResolve computes every receiver's frame draw and
// interference-free decision, element-wise identical to ResolveFrame.
// streams, meanRxDBm and draws must share a length, and no stream may
// appear twice (the medium's destination set is unique per
// transmission) — each link then consumes fade-then-coin in order even
// though the passes are split. Worker-safe under the same contract as
// ResolveFrame: no other goroutine may touch these links' streams.
func (c *Channel) BatchResolve(streams []*FadeStream, meanRxDBm []float64, e FrameEdges, mod Modulation, bytes int, draws []FrameDraw) {
	// Pass 1: fading draws and edge classification. In-band receivers
	// are tagged (HasCoin) and finished in pass 2, so the PER and coin
	// work runs as its own sweep over the — typically sparse — band.
	k := c.cfg.FadingK
	fading := k >= 0
	clamp := c.fadeClampDB
	noise := c.noiseOnlyDB
	inBand := false
	for i, s := range streams {
		var fade float64
		if fading {
			fade = fadingGainDB(s.rng, k)
			if fade > clamp {
				fade = clamp
			}
		}
		sinr0 := meanRxDBm[i] + fade - noise
		d := FrameDraw{FadeDB: fade, SINR0dB: sinr0}
		switch {
		case sinr0 <= e.LossSNRdB:
			d.PER0 = 1
		case sinr0 >= e.ZeroSNRdB:
			d.PER0 = 0
			d.Received0 = true
		default:
			d.HasCoin = true
			inBand = true
		}
		draws[i] = d
	}
	if !inBand {
		return
	}
	// Pass 2: in-band PER and coins, same stream order per link as the
	// fused loop (this link's fade was pass 1's last draw from it).
	for i := range draws {
		d := &draws[i]
		if !d.HasCoin {
			continue
		}
		d.PER0 = mod.PER(d.SINR0dB, bytes)
		d.Coin = streams[i].rng.Float64()
		d.Received0 = d.Coin >= d.PER0
	}
}

// BatchFinish upgrades a batch of draws to final reception decisions at
// delivery time, element-wise identical to FinishFrame. skip[i] marks
// receivers the MAC already dropped (half-duplex, capture): their out
// slot and their link's stream are left untouched, exactly as when the
// per-receiver loop never called FinishFrame for them — late coins are
// only ever drawn for receivers that reach the channel decision.
// Simulation-loop only.
func (c *Channel) BatchFinish(streams []*FadeStream, draws []FrameDraw, meanRxDBm, interferenceDBm []float64, skip []bool, e FrameEdges, mod Modulation, bytes int, out []FrameDecision) {
	for i := range draws {
		if skip[i] {
			continue
		}
		d := &draws[i]
		if math.IsInf(interferenceDBm[i], -1) {
			// No interference — the overwhelmingly common case: the
			// interference-free resolution is already the decision.
			out[i] = FrameDecision{
				RxPowerDBm: meanRxDBm[i] + d.FadeDB,
				SINRdB:     d.SINR0dB,
				PER:        d.PER0,
				Received:   d.Received0,
			}
			continue
		}
		out[i] = c.FinishFrame(streams[i], d, meanRxDBm[i], interferenceDBm[i], e, mod, bytes)
	}
}
