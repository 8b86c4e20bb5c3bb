package carq

import (
	"math"

	"repro/internal/packet"
)

// Frame combining (C-ARQ/FC) implements the extension from the authors'
// companion paper (Morillo & García-Vidal, "A Low Coordination Overhead
// C-ARQ Protocol with Frame Combining", PIMRC 2007, reference [12] of the
// reproduced paper): a receiver keeps the soft information of corrupted
// copies of a packet — the original AP transmission and cooperators'
// retransmissions — and combines them, so several copies that are
// individually undecodable can still yield the packet.
//
// The model is Chase combining at the SNR level: each corrupted copy
// contributes its linear SINR; a combination attempt succeeds with
// probability 1 - PER(sum of linear SINRs). This is the standard analytic
// abstraction for maximum-ratio combining of retransmissions.

// combinerKey identifies the packet a soft buffer belongs to.
type combinerKey struct {
	flow packet.NodeID
	seq  uint32
}

// combinerState accumulates soft information for one packet.
type combinerState struct {
	sinrLinear float64
	copies     int
}

// fcCombine folds a new corrupted copy into the combiner and reports
// whether the combined copies now decode. It draws from the node's RNG,
// so results stay deterministic per seed.
func (n *Node) fcCombine(key combinerKey, sinrDB float64, size int) bool {
	if n.combiner == nil {
		n.combiner = make(map[combinerKey]*combinerState)
	}
	st, ok := n.combiner[key]
	if !ok {
		st = &combinerState{}
		n.combiner[key] = st
	}
	st.sinrLinear += math.Pow(10, sinrDB/10)
	st.copies++
	if st.copies < 2 {
		// A single corrupted copy already failed its own decode; the
		// first combination opportunity needs a second copy.
		return false
	}
	combinedDB := 10 * math.Log10(st.sinrLinear)
	per := n.cfg.FCModulation.PER(combinedDB, size)
	if n.rng.Float64() >= per {
		delete(n.combiner, key)
		return true
	}
	return false
}

// onCorruptFrame processes a channel-corrupted frame when frame combining
// is enabled. Only copies of the node's own flow are worth soft-buffering:
// DATA from the AP and RESPONSE retransmissions from cooperators.
func (n *Node) onCorruptFrame(f *packet.Frame, sinrDB float64) {
	if !n.cfg.FrameCombining || !n.cfg.CoopEnabled {
		return
	}
	switch f.Type {
	case packet.TypeData, packet.TypeResponse:
	default:
		return
	}
	if f.Flow != n.cfg.ID {
		return
	}
	if _, already := n.have[f.Seq]; already {
		return
	}
	n.stats.CorruptCopies++
	if !n.fcCombine(combinerKey{flow: f.Flow, seq: f.Seq}, sinrDB, f.WireSize()) {
		return
	}
	// Combination succeeded: the packet decodes as if received.
	// Combined original transmissions extend the direct-reception range
	// exactly like a clean reception would.
	n.hold(f.Seq, f.Payload, f.Type == packet.TypeData)
	n.stats.Combined++
	n.obs.OnRecovered(n.cfg.ID, f.Seq, f.Src, n.ctx.Now())
	if n.phase == PhaseCoopARQ && n.MissingCount() == 0 {
		n.stopRequesting()
		n.obs.OnComplete(n.cfg.ID, n.ctx.Now())
	}
}
