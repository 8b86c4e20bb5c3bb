package radio

import (
	"math"
	"math/rand"

	"repro/internal/packet"
	"repro/internal/sim"
)

// This file is the medium's frame-decision engine. A frame decision
// applies a fading sample to the mean rx power, computes SINR against
// noise + interference, evaluates the modulation's PER and flips a
// deterministic coin; its randomness is per-directed-link, not
// channel-global, so that frame resolutions are order-independent:
// resolving each transmission's receivers exactly once — in whatever
// order, batched at transmission start or one by one at its end —
// consumes identical stream values and produces byte-identical traces,
// and skipping a receiver whose loss is certain shifts no other link's
// randomness.
//
// The decomposition also exposes the PER curve's cliff shape. For every
// (modulation, frame size) there is an SNR below which the PER computes
// to exactly 1.0 in float64 and an SNR above which it computes to exactly
// 0.0; between them lies a band a few dB wide. Receivers outside the band
// need no transcendental math and — below the saturation edge, where no
// fading boost can save the frame — no randomness at all. The fast paths
// are exact, not approximate: they fire only where the full computation
// provably returns the same decision.

// FadeStream is one directed link's per-frame randomness: the small-scale
// fading gain and the loss coin of every frame from its source to its
// destination. Streams are directed (src→dst), not reciprocal like
// shadowing processes, so a link's stream is only ever advanced while its
// source is on the air — the source's half-duplex serialises access, so
// no two in-flight transmissions ever share a stream.
type FadeStream struct {
	rng *rand.Rand
}

// fadeField lazily creates the per-directed-link fade streams with
// deterministic names, so stream values do not depend on the order links
// first carry traffic. Not safe for concurrent use.
type fadeField struct {
	seed  int64
	links map[uint64]*FadeStream
	// slab and arena amortise per-link construction: city-scale runs
	// create tens of thousands of streams, and each one allocated
	// individually shows up in allocs/op.
	slab  []FadeStream
	arena sim.StreamArena
}

// fadeLinkKey packs a directed link into one integer key. Like the
// shadowing linkKey it gives each NodeID a 32-bit lane, so the key stays
// injective even if packet.NodeID widens beyond 16 bits (the original
// 16-bit lanes collided silently in that case).
func fadeLinkKey(src, dst packet.NodeID) uint64 {
	return uint64(src)<<linkKeyLaneBits | uint64(dst)
}

// FadeStream returns the directed link's per-frame stream, creating it on
// first use. Not safe for concurrent use; the medium looks the stream up
// once per link and caches the pointer.
func (c *Channel) FadeStream(src, dst packet.NodeID) *FadeStream {
	s, ok := c.fades.links[fadeLinkKey(src, dst)]
	if !ok {
		var buf [24]byte
		name := append(buf[:0], "fade-"...)
		name = appendNodeID(name, src)
		name = append(name, '-')
		name = appendNodeID(name, dst)
		if len(c.fades.slab) == 0 {
			c.fades.slab = make([]FadeStream, 128)
		}
		s = &c.fades.slab[0]
		c.fades.slab = c.fades.slab[1:]
		s.rng = c.fades.arena.Stream(c.fades.seed, name)
		c.fades.links[fadeLinkKey(src, dst)] = s
	}
	return s
}

// FrameEdges are the exact decision edges of one (modulation, frame size)
// pair: at or below LossSNRdB the PER computes to exactly 1.0 (loss is
// certain for any coin, fade already applied); at or above ZeroSNRdB it
// computes to exactly 0.0 (reception is certain). Both carry a quarter-dB
// safety margin inside the cliff, so floating-point wobble can never make
// the shortcut disagree with the full computation.
type FrameEdges struct {
	LossSNRdB float64
	ZeroSNRdB float64
}

type edgeKey struct {
	mod   string
	bytes int
}

// FrameEdges returns (and memoises) the decision edges for frames of the
// given modulation and size. Not safe for concurrent use — the medium
// resolves edges once per transmission and stores them on the
// transmission for its delivery stages.
func (c *Channel) FrameEdges(mod Modulation, bytes int) FrameEdges {
	key := edgeKey{mod.Name, bytes}
	if e, ok := c.edges[key]; ok {
		return e
	}
	e := FrameEdges{
		LossSNRdB: certainLossSNRdB(mod, bytes),
		ZeroSNRdB: zeroPERSNRdB(mod, bytes),
	}
	c.edges[key] = e
	return e
}

// zeroPERSNRdB returns an SNR at or above which mod.PER(snr, bytes)
// evaluates to exactly 0.0. Returns +Inf when no such SNR exists. The
// quarter-dB back-off mirrors certainLossSNRdB: it only raises the edge,
// i.e. shrinks the fast path — the conservative direction.
func zeroPERSNRdB(mod Modulation, bytes int) float64 {
	const lo, hi = -300.0, 300.0
	if mod.PER(hi, bytes) > 0 {
		return math.Inf(1)
	}
	if mod.PER(lo, bytes) == 0 {
		return lo
	}
	// PER is monotone non-increasing in SNR; bisect the zero edge.
	a, b := lo, hi
	for i := 0; i < 80; i++ {
		mid := a + (b-a)/2
		if mod.PER(mid, bytes) > 0 {
			a = mid
		} else {
			b = mid
		}
	}
	return b + 0.25
}

// CertainMeanFloorDBm returns the mean rx power at or below which a frame
// with these edges is lost with PER exactly 1.0 whatever the fading draw,
// the coin or the interference. Receivers below it consume no randomness
// at all — the zero-cost analogue of the reception-horizon cull, applied
// per receiver with its exact sampled power.
func (c *Channel) CertainMeanFloorDBm(e FrameEdges) float64 {
	fade := c.fadeClampDB
	if c.cfg.FadingK < 0 {
		fade = 0
	}
	return e.LossSNRdB + c.noiseOnlyDB - fade
}

// FrameDraw is one receiver's per-frame randomness together with its
// interference-free resolution. The medium produces these at the frame's
// start event; the delivery path upgrades them with interference via
// FinishFrame at its end.
type FrameDraw struct {
	// FadeDB is the small-scale fading gain applied to this receiver's
	// copy (already clamped; 0 when fading is disabled).
	FadeDB float64
	// SINR0dB and PER0 are the interference-free SINR and the exact PER
	// at it (0 and 1 at the edges are exact by construction).
	SINR0dB float64
	PER0    float64
	// Coin is the loss coin, drawn only when PER0 lies strictly between
	// the edges (HasCoin). FinishFrame draws it late — in delivery order,
	// on the simulation loop — for the rare receiver pushed into the
	// middle band by interference.
	Coin    float64
	HasCoin bool
	// Received0 is the interference-free decision.
	Received0 bool
}

// ResolveFrame computes one receiver's frame draw and interference-free
// decision. The stream consumption policy is a deterministic function of
// (meanRxDBm, edges, fading config) alone — never of MAC state or
// interference — so resolving receivers in any order, early or late,
// consumes identical values per link:
//
//   - no draw when even the clamped maximum fade cannot lift the SINR
//     above the loss edge (the caller normally culls these receivers
//     earlier via CertainMeanFloorDBm and never calls ResolveFrame);
//   - a fading draw otherwise;
//   - a coin draw only when the interference-free PER is strictly inside
//     (0, 1).
func (c *Channel) ResolveFrame(s *FadeStream, meanRxDBm float64, e FrameEdges, mod Modulation, bytes int) FrameDraw {
	var fade float64
	if c.cfg.FadingK >= 0 {
		fade = fadingGainDB(s.rng, c.cfg.FadingK)
		if fade > c.fadeClampDB {
			fade = c.fadeClampDB
		}
	}
	sinr0 := meanRxDBm + fade - c.noiseOnlyDB
	d := FrameDraw{FadeDB: fade, SINR0dB: sinr0}
	switch {
	case sinr0 <= e.LossSNRdB:
		d.PER0 = 1
	case sinr0 >= e.ZeroSNRdB:
		d.PER0 = 0
		d.Received0 = true
	default:
		d.PER0 = mod.PER(sinr0, bytes)
		d.Coin = s.rng.Float64()
		d.HasCoin = true
		d.Received0 = d.Coin >= d.PER0
	}
	return d
}

// FinishFrame upgrades an interference-free draw to the final reception
// decision at delivery time. Simulation-loop only: when interference
// pushes a receiver whose coin was not needed interference-free into the
// middle band, the coin is drawn here, which is safe because the source
// cannot have started its next frame — and so nothing else can touch this
// link's stream — before this end event completes.
func (c *Channel) FinishFrame(s *FadeStream, d *FrameDraw, meanRxDBm, interferenceDBm float64, e FrameEdges, mod Modulation, bytes int) FrameDecision {
	rx := meanRxDBm + d.FadeDB
	if math.IsInf(interferenceDBm, -1) {
		return FrameDecision{
			RxPowerDBm: rx,
			SINRdB:     d.SINR0dB,
			PER:        d.PER0,
			Received:   d.Received0,
		}
	}
	sinr := rx - 10*math.Log10(c.noiseLin+math.Pow(10, interferenceDBm/10))
	dec := FrameDecision{RxPowerDBm: rx, SINRdB: sinr}
	switch {
	case sinr <= e.LossSNRdB:
		dec.PER = 1
	case sinr >= e.ZeroSNRdB:
		dec.PER = 0
		dec.Received = true
	default:
		dec.PER = mod.PER(sinr, bytes)
		if !d.HasCoin {
			d.Coin = s.rng.Float64()
			d.HasCoin = true
		}
		dec.Received = d.Coin >= dec.PER
	}
	return dec
}
