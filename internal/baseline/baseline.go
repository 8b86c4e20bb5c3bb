// Package baseline provides the comparators the reproduction measures
// C-ARQ against:
//
//   - No cooperation: carq.Config.CoopEnabled = false (plain reception) —
//     the "before coop" column of Table 1.
//   - The joint-reception oracle ("virtual car"): computed from traces by
//     analysis.CoopCurves (its joint curve), exactly as the paper
//     post-processed its captures for Figures 6-8.
//   - AP-side retransmissions: ap.Config.Repeats > 1, trading new-data
//     rate for per-packet reliability during coverage.
//   - Epidemic flooding (this package's EpidemicNode): the push-based
//     carry-and-forward scheme the paper contrasts C-ARQ with. Nodes
//     buffer everything they overhear for anyone and blindly re-broadcast
//     in dark areas, with no REQUEST targeting, no cooperation orders and
//     no suppression. It delivers, but at a far higher transmission cost —
//     the paper's argument for pull-based, neighbourhood-scoped recovery.
package baseline

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The epidemic node's timing: C-ARQ's phase trigger, for a fair
// comparison, and a moderate flooding rate.
const (
	// apTimeout is the silence period after which the node considers
	// itself in a dark area and starts flooding: C-ARQ's 5 s.
	apTimeout = 5 * time.Second
	// pushInterval is the pacing between flooded frames.
	pushInterval = 40 * time.Millisecond
	// maxPushes bounds how many times one buffered packet is flooded.
	maxPushes = 2
)

// pushKey identifies one buffered foreign packet.
type pushKey struct {
	flow packet.NodeID
	seq  uint32
}

// EpidemicNode buffers every DATA frame it hears — its own flow and
// everyone else's — and, in dark areas, re-broadcasts foreign packets
// round-robin so their owners (and further relays) can pick them up.
type EpidemicNode struct {
	id   packet.NodeID
	ctx  *sim.Engine
	port carq.Port
	rng  *rand.Rand
	obs  carq.Observer

	own   map[uint32][]byte
	store map[pushKey][]byte
	// order keeps deterministic round-robin over the store.
	order  []pushKey
	pushes map[pushKey]int
	cursor int

	dark    bool
	apTimer *sim.Timer // enters the dark area when AP frames stop
	push    *sim.Timer // paces the dark-area flood

	stats EpidemicStats
}

// EpidemicStats are the node's cumulative counters.
type EpidemicStats struct {
	DataDirect uint64 // own-flow packets received from the AP
	Recovered  uint64 // own-flow packets received from relays
	Buffered   uint64 // foreign packets stored
	Pushes     uint64 // flooded transmissions
}

// NewEpidemicNode builds a stopped node for station id; Start begins
// operation.
func NewEpidemicNode(id packet.NodeID, ctx *sim.Engine, port carq.Port, rng *rand.Rand, obs carq.Observer) (*EpidemicNode, error) {
	if ctx == nil || port == nil || rng == nil {
		return nil, fmt.Errorf("baseline: nil dependency")
	}
	if obs == nil {
		obs = carq.NopObserver{}
	}
	n := &EpidemicNode{
		id:     id,
		ctx:    ctx,
		port:   port,
		rng:    rng,
		obs:    obs,
		own:    make(map[uint32][]byte),
		store:  make(map[pushKey][]byte),
		pushes: make(map[pushKey]int),
	}
	n.apTimer = ctx.NewTimer(n.enterDark)
	n.push = ctx.NewTimer(n.pushTick)
	return n, nil
}

// Start implements scenario.Node; the epidemic node is purely reactive
// until AP silence, so Start is a no-op hook for interface symmetry.
func (n *EpidemicNode) Start() {}

// Stats returns a snapshot of the counters.
func (n *EpidemicNode) Stats() EpidemicStats { return n.stats }

// HaveCount returns the number of own-flow packets held.
func (n *EpidemicNode) HaveCount() int { return len(n.own) }

// Have reports whether the node holds its own-flow packet seq.
func (n *EpidemicNode) Have(seq uint32) bool {
	_, ok := n.own[seq]
	return ok
}

// HandleFrame implements mac.Handler.
func (n *EpidemicNode) HandleFrame(f *packet.Frame, meta mac.RxMeta) {
	switch f.Type {
	case packet.TypeData:
		n.onAPContact()
		n.absorb(f.Flow, f.Seq, f.Payload, f.Src, true)
	case packet.TypeResponse:
		// Flooded relay frame: absorb it exactly like original data.
		n.absorb(f.Flow, f.Seq, f.Payload, f.Src, false)
	}
}

func (n *EpidemicNode) absorb(flow packet.NodeID, seq uint32, payload []byte, from packet.NodeID, fromAP bool) {
	if from == n.id {
		return
	}
	if flow == n.id {
		if _, dup := n.own[seq]; dup {
			return
		}
		n.own[seq] = payload
		if fromAP {
			n.stats.DataDirect++
		} else {
			n.stats.Recovered++
			n.obs.OnRecovered(n.id, seq, from, n.ctx.Now())
		}
		return
	}
	key := pushKey{flow: flow, seq: seq}
	if _, dup := n.store[key]; dup {
		return
	}
	n.store[key] = payload
	n.order = append(n.order, key)
	n.stats.Buffered++
}

func (n *EpidemicNode) onAPContact() {
	n.apTimer.Reset(apTimeout)
	if n.dark {
		n.dark = false
		n.push.Stop()
	}
}

func (n *EpidemicNode) enterDark() {
	n.dark = true
	// Desynchronise the flood start across nodes.
	jitter := time.Duration(n.rng.Int63n(int64(pushInterval) + 1))
	n.push.Reset(jitter)
}

// pushTick runs only while dark: leaving the dark area stops the push
// timer.
func (n *EpidemicNode) pushTick() {
	if key, payload, ok := n.nextPush(); ok {
		if err := n.port.Send(packet.NewResponse(n.id, key.flow, key.seq, payload)); err == nil {
			n.pushes[key]++
			n.stats.Pushes++
		}
	}
	n.push.Reset(pushInterval)
}

// nextPush scans the round-robin order for the next packet still under
// its push budget.
func (n *EpidemicNode) nextPush() (pushKey, []byte, bool) {
	if len(n.order) == 0 {
		return pushKey{}, nil, false
	}
	for scanned := 0; scanned < len(n.order); scanned++ {
		if n.cursor >= len(n.order) {
			n.cursor = 0
		}
		key := n.order[n.cursor]
		n.cursor++
		if n.pushes[key] < maxPushes {
			return key, n.store[key], true
		}
	}
	return pushKey{}, nil, false
}

var _ mac.Handler = (*EpidemicNode)(nil)
