package mac

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Station is a network interface attached to the shared medium. It runs a
// simplified DCF for broadcast traffic: wait for an idle medium, defer
// DIFS plus a uniform random back-off, then transmit. There are no MAC
// acknowledgements or retransmissions (the paper's prototype disabled
// them), so the contention window never doubles.
//
// One deliberate simplification versus full DCF: when the medium turns
// busy during the back-off countdown, the station re-draws its back-off
// after the medium frees instead of freezing the counter. For the low
// contention levels of the reproduced scenarios (an AP at ~15 frames/s
// plus sparse protocol beacons) the difference is negligible; the property
// that matters — ordered cooperators rarely collide — is preserved.
type Station struct {
	id packet.NodeID
	// idx is the station's registration index; delivery iterates stations
	// in this order whatever the medium's enumeration mode.
	idx     int
	medium  *Medium
	pos     PositionFunc
	handler Handler
	cfg     Config
	rng     *rand.Rand
	// untraced takes the station out of the trace scope (see Untrace).
	untraced bool

	// queue is a ring of frames waiting for the medium: qhead indexes the
	// next frame out, the tail appends, and the backing array recycles
	// whenever the queue drains — steady state enqueues nothing.
	queue        []*packet.Frame
	qhead        int
	transmitting bool
	// contention is the DIFS+back-off countdown timer; idle when the
	// station is not contending.
	contention *sim.Timer
	// waiting marks that the station has traffic but the medium was busy;
	// it retries when the medium may have become idle.
	waiting bool
	// queuedWait marks membership in the medium's wake-up list.
	queuedWait bool

	// links caches this station's outgoing per-receiver channel handles
	// (shadowing process, fade stream) by receiver registration index:
	// the delivery path touches both once per (frame, receiver) and one
	// slice probe beats two of the channel's map lookups at city-scale
	// rates. Entries are fetched lazily; the slice grows to the medium's
	// population on first use.
	links []stationLink

	// posT/posP memoise the last position evaluation. Position functions
	// are pure, and the delivery path often asks for the same station's
	// position several times in one instant (index refresh plus exact
	// filters plus power sampling), so the memo trades one comparison for
	// repeated mobility-model evaluations.
	posT  time.Duration
	posP  geom.Point
	posOK bool

	// sent counts frames put on the air, for diagnostics.
	sent uint64
	// dropped counts frames rejected at enqueue time (full queue).
	dropped uint64
}

// ID returns the station's node ID.
func (s *Station) ID() packet.NodeID { return s.id }

// Sent returns the number of frames this station has transmitted.
func (s *Station) Sent() uint64 { return s.sent }

// QueueLen returns the number of frames waiting for the medium.
func (s *Station) QueueLen() int { return len(s.queue) - s.qhead }

// SetHandler installs the receive handler; protocol layers that need a
// reference to their own station call this after AddStation.
func (s *Station) SetHandler(h Handler) { s.handler = h }

// Untrace takes the station out of the trace scope: the medium no longer
// reports its transmissions, or the receptions and drops at it, to the
// tracer, and counts each skipped call in Stats.Untraced instead.
// Delivery, the other counters and handler dispatch are unchanged,
// unless the station is also deaf (see deaf).
func (s *Station) Untrace() { s.untraced = true }

// deaf reports whether nothing observes what the station receives: it is
// untraced, has no handler and does not take corrupt deliveries. The
// medium resolves no frame at a deaf station and only tracks which frames
// it carrier-senses (Stats.Sensed). Deafness is read as each frame starts.
func (s *Station) deaf() bool {
	return s.untraced && s.handler == nil && !s.cfg.DeliverCorrupt
}

// stationLink bundles the channel handles of one src→rx pair. Creating
// either handle draws no randomness, so fetching both on the pair's first
// contact is invisible in traces; the fade stream is only consumed when
// the delivery path decides to resolve the receiver.
type stationLink struct {
	shadow *radio.ShadowLink
	fade   *radio.FadeStream
}

// linkTo returns s's channel handles toward rx, probing the registration-
// indexed cache before the channel's lazy maps.
func (s *Station) linkTo(rx *Station) *stationLink {
	if rx.idx >= len(s.links) {
		grown := make([]stationLink, len(s.medium.order))
		copy(grown, s.links)
		s.links = grown
	}
	l := &s.links[rx.idx]
	if l.shadow == nil {
		l.shadow = s.medium.channel.ShadowLink(s.id, rx.id)
		l.fade = s.medium.channel.FadeStream(s.id, rx.id)
	}
	return l
}

// posAt returns the station's position at now, memoising the evaluation.
func (s *Station) posAt(now time.Duration) geom.Point {
	if s.posOK && s.posT == now {
		return s.posP
	}
	p := s.pos(now)
	s.posT, s.posP, s.posOK = now, p, true
	return p
}

// Send validates the frame and enqueues it for transmission. It returns
// an error if the frame fails packet.Frame.Validate or the queue is full.
//
// The frame is immutable from Send on: the medium hands this very frame,
// not a copy, to the tracer and to every receiving handler, so neither
// the sender nor any handler may change it or the slices it holds.
func (s *Station) Send(f *packet.Frame) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("mac: station %v: %w", s.id, err)
	}
	if s.QueueLen() >= s.cfg.QueueCap {
		s.dropped++
		return fmt.Errorf("mac: station %v: queue full (%d frames)", s.id, s.QueueLen())
	}
	s.queue = append(s.queue, f)
	s.tryContend()
	return nil
}

// wantsMedium reports whether the station has traffic waiting on medium
// availability.
func (s *Station) wantsMedium() bool {
	return s.QueueLen() > 0 && !s.transmitting && !s.contention.Pending()
}

// tryContend starts the DIFS+back-off countdown if the station has
// traffic, is not already contending or transmitting, and senses an idle
// medium. Otherwise it flags itself to be woken when the medium frees.
func (s *Station) tryContend() {
	if s.QueueLen() == 0 || s.transmitting || s.contention.Pending() {
		return
	}
	if s.medium.busyFor(s) {
		s.waiting = true
		s.medium.enqueueWaiting(s)
		return
	}
	s.waiting = false
	slots := s.rng.Intn(cwMin + 1)
	s.contention.Reset(difs + time.Duration(slots)*slotTime)
}

// beginTx fires at the end of the contention period.
func (s *Station) beginTx() {
	if s.QueueLen() == 0 {
		return
	}
	// The medium may have turned busy in the same instant (tie-breaking);
	// re-check before seizing it.
	if s.medium.busyFor(s) {
		s.waiting = true
		s.medium.enqueueWaiting(s)
		return
	}
	f := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue, s.qhead = s.queue[:0], 0
	} else if s.qhead >= 32 && s.qhead*2 >= len(s.queue) {
		// A station that never fully drains would otherwise grow its
		// backing array by one dead slot per frame ever sent; compact
		// once the dead prefix dominates, which amortises to O(1) per
		// frame and bounds the array at ~2x the live queue.
		n := copy(s.queue, s.queue[s.qhead:])
		for i := n; i < len(s.queue); i++ {
			s.queue[i] = nil
		}
		s.queue, s.qhead = s.queue[:n], 0
	}
	s.transmitting = true
	s.sent++
	s.medium.startTransmission(s, f)
}

// onMediumBusy is called by the medium when a transmission starts that
// this station can sense: abort contention and wait for idle.
func (s *Station) onMediumBusy() {
	s.contention.Stop()
	if s.QueueLen() > 0 && !s.transmitting {
		s.waiting = true
		s.medium.enqueueWaiting(s)
	}
}

// onMediumMaybeIdle is called by the medium when a transmission ends and
// this station has pending traffic.
func (s *Station) onMediumMaybeIdle() {
	if s.waiting || s.wantsMedium() {
		s.tryContend()
	}
}

// onOwnTxEnd is called by the medium when this station's transmission
// finishes; the station may contend for its next queued frame.
func (s *Station) onOwnTxEnd() {
	s.transmitting = false
	s.tryContend()
}
