// Package carq implements the paper's contribution: a Cooperative ARQ
// protocol for delay-tolerant vehicular networks (Morillo-Pozo et al.,
// ICDCS Workshops 2008).
//
// Each vehicle node cycles through three phases:
//
//   - Association/Idle: the node beacons HELLOs but has no AP contact. A
//     node is considered associated from the moment it receives any DATA
//     frame (the prototype's rule).
//   - Reception: while in AP coverage the node records packets of its own
//     flow and buffers overheard packets addressed to the platoon members
//     that listed it as a cooperator. HELLO beacons advertise the node's
//     cooperator list, which simultaneously recruits cooperators and
//     assigns each its response order.
//   - Cooperative-ARQ: when no DATA frame has been heard for the AP
//     timeout, the node cycles over its missing-packet list
//     (first..last sequence received from the AP), broadcasting REQUESTs.
//     Cooperators holding a requested packet respond after a back-off
//     proportional to their assigned order, suppressing their response if
//     another cooperator answers first. The cycle repeats over the
//     shrinking list until it drains or a new AP is contacted.
//
// The protocol runs on fixed timing:
//
//   - HELLO beacons every 1 s, jittered ±10% against synchronisation;
//     a cooperator candidate not heard for three beacon periods expires
//     (Config.CandidateTTL overrides this);
//   - the AP timeout is 5 s, the prototype's value as the paper states it;
//   - a cooperator of order k answers a REQUEST after k response slots of
//     15 ms, and paces a multi-packet answer 12 ms per packet. A slot
//     exceeds one response airtime, so a later cooperator overhears an
//     earlier answer and suppresses its own;
//   - a requester waits one slot per cooperator order plus 12 ms per
//     requested packet, then 10 ms more, before its next REQUEST.
//
// The protocol talks to the network through the small Port interface, so
// it can be unit-tested against a scripted port and deployed over the
// simulated 802.11 MAC in package mac.
package carq

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/radio"
)

// Phase is the protocol operating phase.
type Phase uint8

// Protocol phases; see the package comment.
const (
	PhaseIdle Phase = iota + 1
	PhaseReception
	PhaseCoopARQ
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseReception:
		return "reception"
	case PhaseCoopARQ:
		return "coop-arq"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Port is the node's transmit interface; *mac.Station satisfies it.
type Port interface {
	Send(f *packet.Frame) error
}

// Observer receives protocol-level events for tracing and experiments.
// Implementations must be cheap; any method may be a no-op.
type Observer interface {
	// OnPhaseChange fires on every phase transition.
	OnPhaseChange(id packet.NodeID, from, to Phase, at time.Duration)
	// OnRecovered fires when a missing packet is recovered from a
	// cooperator.
	OnRecovered(id packet.NodeID, seq uint32, from packet.NodeID, at time.Duration)
	// OnComplete fires when the node's missing list drains to empty
	// during a Cooperative-ARQ phase.
	OnComplete(id packet.NodeID, at time.Duration)
}

// NopObserver is an Observer that ignores everything.
type NopObserver struct{}

// OnPhaseChange implements Observer.
func (NopObserver) OnPhaseChange(packet.NodeID, Phase, Phase, time.Duration) {}

// OnRecovered implements Observer.
func (NopObserver) OnRecovered(packet.NodeID, uint32, packet.NodeID, time.Duration) {}

// OnComplete implements Observer.
func (NopObserver) OnComplete(packet.NodeID, time.Duration) {}

// The protocol timing (see the package doc).
const (
	// helloInterval is the beacon period.
	helloInterval = time.Second
	// apTimeout is the silence period after the last heard DATA frame
	// that triggers the Cooperative-ARQ phase.
	apTimeout = 5 * time.Second
	// coopSlot is the per-order response back-off unit: the cooperator
	// with order k answers k*coopSlot after a REQUEST. It must exceed a
	// response airtime for overhear-suppression to work.
	coopSlot = 15 * time.Millisecond
	// perResponseTime paces multi-packet response bursts and sizes the
	// per-request response window.
	perResponseTime = 12 * time.Millisecond
	// requestSpacing is extra idle margin between request cycles.
	requestSpacing = 10 * time.Millisecond
)

// Config holds the protocol parameters a study varies.
type Config struct {
	// ID is this node's address.
	ID packet.NodeID
	// BatchRequests enables the paper's proposed optimisation: one
	// REQUEST carries all missing sequences (up to MaxBatch) instead of
	// one REQUEST per packet.
	BatchRequests bool
	// MaxBatch bounds sequences per batched REQUEST.
	MaxBatch int
	// KnownFirstSeq is the first sequence number of the downloaded
	// block, known a priori because the node requested the download
	// (the paper's Figures 7-8 show cars recovering packets from before
	// their own first reception, which requires this knowledge). The
	// missing list then spans [KnownFirstSeq, last directly received].
	// Zero falls back to the node's own first reception — the strict
	// "first received" interpretation, kept as an ablation.
	KnownFirstSeq uint32
	// CandidateTTL expires cooperator candidates that have not been
	// heard for this long. Zero defaults to three beacon periods.
	CandidateTTL time.Duration
	// Selection picks and orders cooperators from the candidate set.
	// Nil defaults to SelectAll.
	Selection Selection
	// BufferForAll buffers overheard DATA for every platoon member, not
	// just those whose HELLO listed this node as cooperator. The paper's
	// protocol is strict (false); true is an ablation.
	BufferForAll bool
	// CoopEnabled gates the whole cooperative machinery; false turns the
	// node into the no-cooperation baseline (it still counts receptions
	// but neither beacons, buffers, requests nor responds).
	CoopEnabled bool
	// FrameCombining enables the C-ARQ/FC extension (the authors'
	// PIMRC 2007 companion scheme, reference [12]): corrupted copies of
	// own-flow packets are soft-buffered and Chase-combined, so copies
	// that are individually undecodable can still yield the packet. The
	// node's MAC station must enable mac.Config.DeliverCorrupt.
	FrameCombining bool
	// FCModulation is the PHY rate assumed by the combining model; zero
	// defaults to 1 Mb/s DSSS.
	FCModulation radio.Modulation
}

// DefaultConfig returns the canonical parameters for node id.
func DefaultConfig(id packet.NodeID) Config {
	return Config{
		ID:            id,
		BatchRequests: false,
		MaxBatch:      64,
		KnownFirstSeq: 1,
		Selection:     SelectAll{},
		CoopEnabled:   true,
	}
}

func (c Config) validate() error {
	if c.BatchRequests && c.MaxBatch <= 0 {
		return fmt.Errorf("carq: batched requests with MaxBatch %d", c.MaxBatch)
	}
	return nil
}

// Stats are cumulative protocol counters, readable at any time.
type Stats struct {
	HellosSent           uint64
	RequestsSent         uint64
	RequestSeqsSent      uint64 // total sequence numbers across REQUESTs
	ResponsesSent        uint64
	ResponsesSuppressed  uint64
	DataDirect           uint64 // own-flow DATA received from the AP
	DataDuplicate        uint64 // own-flow DATA already held
	DataBuffered         uint64 // overheard DATA buffered for others
	Recovered            uint64 // own-flow packets recovered via C-ARQ
	RecoveredDuplicate   uint64 // responses for packets already held
	PhaseTransitions     uint64
	RequestCyclesStarted uint64
	CorruptCopies        uint64 // soft copies absorbed by frame combining
	Combined             uint64 // packets recovered by frame combining
}
