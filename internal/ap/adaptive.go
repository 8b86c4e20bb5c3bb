package ap

import (
	"time"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

// AdaptiveRepeats implements the retransmission scheme the paper's §3.2
// defers to future work: "a retransmission scheme (possibly adaptive with
// respect to the number of cooperators) would be needed in a real
// system". The AP overhears the platoon's HELLO beacons, estimates how
// many cooperators each passing car currently has, and scales its
// per-packet repeat count inversely: a car travelling alone gets
// MaxRepeats copies of every packet (nobody will help it later), while a
// full platoon gets single transmissions and relies on C-ARQ recovery.
//
// Attach it to the AP's station as the receive handler and pass it to
// New via Config.RepeatPolicy.
type AdaptiveRepeats struct {
	ctx *sim.Engine
	// MaxRepeats is the repeat count used when no cooperators are heard.
	MaxRepeats int
	// Window is how long a heard vehicle stays in the estimate.
	Window time.Duration

	// lastHeard tracks recent HELLO senders.
	lastHeard map[packet.NodeID]time.Duration
	// lastListLen tracks the size of each sender's advertised
	// cooperator list.
	lastListLen map[packet.NodeID]int
}

// NewAdaptiveRepeats builds a policy with the given ceiling. A window of
// zero defaults to 3 seconds.
func NewAdaptiveRepeats(ctx *sim.Engine, maxRepeats int, window time.Duration) *AdaptiveRepeats {
	if maxRepeats < 1 {
		maxRepeats = 1
	}
	if window <= 0 {
		window = 3 * time.Second
	}
	return &AdaptiveRepeats{
		ctx:         ctx,
		MaxRepeats:  maxRepeats,
		Window:      window,
		lastHeard:   make(map[packet.NodeID]time.Duration),
		lastListLen: make(map[packet.NodeID]int),
	}
}

// HandleFrame implements mac.Handler: the AP listens promiscuously for
// HELLO beacons.
func (p *AdaptiveRepeats) HandleFrame(f *packet.Frame, meta mac.RxMeta) {
	if meta.Corrupt || f.Type != packet.TypeHello {
		return
	}
	p.lastHeard[f.Src] = p.ctx.Now()
	p.lastListLen[f.Src] = len(f.List)
}

// cooperatorEstimate returns the mean advertised cooperator count over
// vehicles heard within the window.
func (p *AdaptiveRepeats) cooperatorEstimate() float64 {
	now := p.ctx.Now()
	sum, n := 0, 0
	for id, at := range p.lastHeard {
		if now-at > p.Window {
			delete(p.lastHeard, id)
			delete(p.lastListLen, id)
			continue
		}
		sum += p.lastListLen[id]
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Repeats implements RepeatPolicy: MaxRepeats with no cooperators heard,
// decreasing by one per average cooperator, floored at one.
func (p *AdaptiveRepeats) Repeats(now time.Duration) int {
	// If nothing was heard at all, nobody is near: repeating is free of
	// opportunity cost only when someone listens, so stay at 1 until a
	// vehicle is heard, then adapt to its cooperator count.
	heard := false
	for id, at := range p.lastHeard {
		if now-at <= p.Window {
			heard = true
			break
		}
		delete(p.lastHeard, id)
		delete(p.lastListLen, id)
	}
	if !heard {
		return 1
	}
	r := p.MaxRepeats - int(p.cooperatorEstimate()+0.5)
	if r < 1 {
		r = 1
	}
	if r > p.MaxRepeats {
		r = p.MaxRepeats
	}
	return r
}

var _ mac.Handler = (*AdaptiveRepeats)(nil)

// RepeatPolicy decides, at transmission time, how many copies of a packet
// the AP sends. The static policy is Config.Repeats.
type RepeatPolicy interface {
	Repeats(now time.Duration) int
}
