package mac

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
)

// PositionFunc reports a station's position at a virtual time. Mobility
// models provide these. Position functions must be pure (no side effects,
// same answer for the same time): the medium may evaluate them a different
// number of times depending on its delivery mode.
type PositionFunc func(now time.Duration) geom.Point

// RxMeta carries the PHY-level context of a received frame.
type RxMeta struct {
	At         time.Duration
	RxPowerDBm float64
	SINRdB     float64
	// Corrupt marks a frame that failed the channel but was delivered
	// anyway because the station enables DeliverCorrupt; its payload is
	// intact at the simulation level, and SINRdB tells a frame-combining
	// receiver how much soft information the copy carries.
	Corrupt bool
}

// Handler consumes frames delivered by a station's radio. Stations are
// promiscuous: every frame the channel delivers reaches the handler,
// whatever its destination, mirroring the prototype's monitor-mode NICs.
//
// The frame a handler receives is the one the sender passed to
// Station.Send, shared by the tracer and every receiving station. Frames
// are immutable from Send on: handlers may retain the frame and the
// slices it holds, but must never mutate them.
type Handler interface {
	HandleFrame(f *packet.Frame, meta RxMeta)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(f *packet.Frame, meta RxMeta)

// HandleFrame implements Handler.
func (fn HandlerFunc) HandleFrame(f *packet.Frame, meta RxMeta) { fn(f, meta) }

// Tracer observes MAC/PHY events; all methods may be called with high
// frequency, so implementations should be cheap. Any method may be a
// no-op.
type Tracer interface {
	OnTx(src packet.NodeID, f *packet.Frame, start, airtime time.Duration)
	OnRx(dst packet.NodeID, f *packet.Frame, meta RxMeta)
	OnDrop(dst packet.NodeID, f *packet.Frame, at time.Duration, reason DropReason)
}

// discardTracer is used when the caller passes a nil tracer.
type discardTracer struct{}

func (discardTracer) OnTx(packet.NodeID, *packet.Frame, time.Duration, time.Duration) {}
func (discardTracer) OnRx(packet.NodeID, *packet.Frame, RxMeta)                       {}
func (discardTracer) OnDrop(packet.NodeID, *packet.Frame, time.Duration, DropReason)  {}

// transmission is one frame on the air.
type transmission struct {
	src   *Station
	frame *packet.Frame
	// bytes is frame.WireSize(), the size airtime, the horizon and the
	// PER edges are computed for.
	bytes int
	mod   radio.Modulation
	start time.Duration
	end   time.Duration
	// dests are the listening stations inside the transmission's
	// reception horizon at start whose sampled mean power clears the
	// certain-loss floor, in registration order — the only stations the
	// frame is resolved at or interferes at (see recipients and the
	// stage-zero cull in startTransmission).
	dests []*Station
	// sensors are the deaf stations (see Station.deaf) whose mean power
	// at start reaches their carrier-sense threshold, in candidate order:
	// the frame keeps them busy but is never resolved at them.
	sensors []*Station
	// pows[i] is the mean rx power at dests[i], sampled at start. A
	// parallel slice, not a map: the horizon keeps the set small enough
	// that a linear scan beats hashing, and the allocation matters at
	// city-scale transmission rates.
	pows []float64
	// fades[i] is dests[i]'s per-directed-link frame-randomness stream,
	// looked up once at transmission start. Always non-nil: receivers
	// whose loss is certain never enter dests (the stage-zero cull).
	fades []*radio.FadeStream
	// draws[i] is dests[i]'s frame randomness and interference-free
	// decision, resolved by the batched kernel at transmission start and
	// finished against the interference seen by its end.
	draws []radio.FrameDraw
	// edges are the exact PER decision edges for this frame's
	// (modulation, size), resolved once at transmission start.
	edges radio.FrameEdges
	// next links the medium's transmission free list; transmissions
	// recycle when they age out of the interference history.
	next *transmission
}

// powerAt returns the transmission's mean rx power at station s, if s is
// one of its dests.
func (t *transmission) powerAt(s *Station) (float64, bool) {
	for i, d := range t.dests {
		if d == s {
			return t.pows[i], true
		}
	}
	return 0, false
}

// sensedBy reports whether s senses the transmission: a dest at or above
// its carrier-sense threshold, or a sensor.
func (t *transmission) sensedBy(s *Station) bool {
	if p, ok := t.powerAt(s); ok {
		return p >= s.cfg.CSThresholdDBm
	}
	for _, d := range t.sensors {
		if d == s {
			return true
		}
	}
	return false
}

func (t *transmission) overlaps(s, e time.Duration) bool {
	return t.start < e && t.end > s
}

// Enumeration selects how the medium finds each transmission's candidate
// receivers. It never changes WHAT is delivered, only how the receiver
// set is enumerated: every choice produces byte-identical traces.
type Enumeration uint8

const (
	// EnumerateAuto, the zero value, scans populations below
	// indexMinStations and queries the station grid above.
	EnumerateAuto Enumeration = iota
	// EnumerateScan looks at every registered station per transmission:
	// the tests' reference path.
	EnumerateScan
	// EnumerateIndex queries the station grid at any population.
	EnumerateIndex
)

const (
	// indexMinStations is the population below which EnumerateAuto scans:
	// building a grid for a handful of stations costs more than looking
	// at all of them.
	indexMinStations = 16
	// indexRefresh bounds how stale the station grid may grow before a
	// transmission rebuilds it from the stations' position functions.
	// Staleness is compensated by padding queries with maxSpeedMPS times
	// the grid's age, so the interval trades rebuild cost against query
	// width, never correctness.
	indexRefresh = 500 * time.Millisecond
	// maxSpeedMPS bounds how fast any station may move. It is a contract
	// with the mobility models: a station exceeding it could outrun the
	// stale-grid pad and miss deliveries.
	maxSpeedMPS = 60
)

// Medium is the shared wireless channel. It owns the set of stations, the
// list of in-flight transmissions, and the delivery logic.
//
// Delivery is range-culled: every transmission computes its reception
// horizon — the distance beyond which the channel guarantees the frame
// cannot be decoded (even with the maximum fading/shadowing boost), cannot
// trigger carrier sense at any station, and is treated as contributing no
// interference (its power there is provably below the weakest relevant
// floor, at least ~15 dB under noise). Only stations inside the horizon
// are considered. The horizon is part of the channel model: the indexed
// and exhaustive paths apply the same cut, in the same station order, so
// their traces are byte-identical.
type Medium struct {
	engine   *sim.Engine
	channel  *radio.Channel
	tracer   Tracer
	enum     Enumeration
	stations map[packet.NodeID]*Station
	order    []*Station // deterministic iteration order
	active   []*transmission
	// history keeps recently ended transmissions long enough to compute
	// interference for frames that overlapped them; pruneAt is the length
	// that triggers the next lazy prune.
	history []*transmission
	pruneAt int
	// maxAirtime widens the history retention so that even the longest
	// frame seen stays available for overlap queries.
	maxAirtime time.Duration

	// minCSDBm is the lowest carrier-sense threshold across stations; the
	// reception horizon must reach at least as far as the most sensitive
	// carrier sensor.
	minCSDBm float64
	// rangeCache memoises the per-(modulation, frame size) horizon.
	rangeCache map[rangeKey]float64

	// grid indexes every station's position sampled at gridAt, for the
	// indexed enumeration; gridOK is false until the first build and after
	// AddStation.
	grid   stationGrid
	gridAt time.Duration
	gridOK bool
	// waitlist holds stations that flagged themselves waiting for an idle
	// medium; endTransmission wakes exactly these (in registration
	// order) instead of scanning every station.
	waitlist []*Station
	// endCall is the pooled-event callback ending transmissions, built
	// once so the tx/rx hot path schedules without allocating a closure.
	endCall func(any)
	// txFree recycles transmissions as they age out of the history.
	txFree *transmission
	// scratch buffers, reused across transmissions.
	candIdx  []int32
	rxc      []rxCand
	pts      []geom.Point
	overlaps []*transmission
	wake     []*Station
	// SoA gather scratch for the batched channel kernels: the candidate
	// set's link handles and geometry as parallel slices feeding
	// radio.BatchMeanRxPower (startTransmission), and the delivery-stage
	// verdict mask, interference terms and decisions feeding
	// radio.BatchFinish (finishTransmission).
	shadowScr []*radio.ShadowLink
	fadeScr   []*radio.FadeStream
	distScr   []float64
	posScr    []geom.Point
	powScr    []float64
	verdicts  []DropReason
	skip      []bool
	interf    []float64
	decs      []radio.FrameDecision

	// stats are the medium's plain event counters, maintained
	// unconditionally (the medium is single-threaded and an increment is
	// cheaper than a guarding branch) and read through Stats. They count
	// what happened; they never influence delivery, ordering or
	// randomness, so traces are byte-identical with or without a reader.
	stats Stats
}

// Stats is a point-in-time copy of the medium's delivery counters. All
// fields are deterministic counts, never wall-clock measures.
type Stats struct {
	// Transmissions counts frames put on the air; Deliveries counts
	// successful frame receptions at resolved receivers: listening
	// stations, whose handler, tracer or corrupt-delivery flag observes
	// the frame. Deaf stations are never resolved (see Sensed).
	Transmissions uint64
	Deliveries    uint64
	// Drops counts non-deliveries at resolved receivers by cause, indexed
	// by DropReason (DropChannel..DropHalfDuplex; index 0 is unused).
	Drops [4]uint64
	// Candidates counts, per transmission, the stations inside the
	// frame's reception horizon; Culled counts those the stage-zero cull
	// dropped, and Sensed the deaf stations the frame only keeps busy
	// (mean power at or above their carrier-sense threshold). Every other
	// candidate is delivered, dropped for a named cause, or still on the
	// air (InFlightReceivers):
	// Candidates = Deliveries + ΣDrops + Culled + Sensed + InFlightReceivers().
	Candidates uint64
	Culled     uint64
	Sensed     uint64
	// IndexQueries counts receiver-set enumerations answered by the
	// station grid, ScanQueries those answered by the exhaustive scan
	// (small populations, EnumerateScan, or unbounded horizons).
	// IndexRebuilds counts station-grid builds, one per refresh.
	IndexQueries  uint64
	ScanQueries   uint64
	IndexRebuilds uint64
	// Untraced counts tracer calls skipped for untraced stations (see
	// Station.Untrace): with every station traced it is zero, and in
	// general the tracer saw Transmissions + Deliveries + ΣDrops -
	// Untraced events.
	Untraced uint64
}

// Stats returns the medium's counters so far. The medium is
// single-threaded; call it from the owning goroutine (typically after
// the run completes).
func (m *Medium) Stats() Stats { return m.stats }

// InFlightReceivers returns how many receivers the frames still on the
// air are bound for: the term that closes the receiver accounting
// identity (see Stats.Candidates) for a run stopped mid-frame.
func (m *Medium) InFlightReceivers() int {
	n := 0
	for _, tx := range m.active {
		n += len(tx.dests)
	}
	return n
}

type rangeKey struct {
	mod   string
	bytes int
}

// NewMedium creates a medium over the given engine and channel. A nil
// tracer disables tracing.
func NewMedium(engine *sim.Engine, channel *radio.Channel, tracer Tracer) *Medium {
	if tracer == nil {
		tracer = discardTracer{}
	}
	m := &Medium{
		engine:     engine,
		channel:    channel,
		tracer:     tracer,
		stations:   make(map[packet.NodeID]*Station),
		minCSDBm:   math.Inf(1),
		rangeCache: make(map[rangeKey]float64),
		pruneAt:    32,
	}
	m.endCall = func(arg any) { m.endTransmission(arg.(*transmission)) }
	return m
}

// SetEnumeration selects how receivers are enumerated (EnumerateAuto by
// default). Any choice delivers the same frames.
func (m *Medium) SetEnumeration(e Enumeration) { m.enum = e }

// Engine returns the simulation engine driving this medium.
func (m *Medium) Engine() *sim.Engine { return m.engine }

// AddStation registers a station. The id must be unique and pos non-nil;
// handler may be nil for transmit-only stations. An untraced station with
// no handler and no DeliverCorrupt is deaf: the medium only carrier-senses
// for it (see Station.deaf).
func (m *Medium) AddStation(id packet.NodeID, pos PositionFunc, handler Handler, cfg Config) (*Station, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if pos == nil {
		return nil, fmt.Errorf("mac: station %v has nil position function", id)
	}
	if _, dup := m.stations[id]; dup {
		return nil, fmt.Errorf("mac: duplicate station id %v", id)
	}
	if id == packet.Broadcast {
		return nil, fmt.Errorf("mac: station id %v is reserved", id)
	}
	s := &Station{
		id:      id,
		idx:     len(m.order),
		medium:  m,
		pos:     pos,
		handler: handler,
		cfg:     cfg,
		rng:     sim.Stream(int64(m.channel.Config().Seed), "mac-backoff-"+id.String()),
	}
	s.contention = m.engine.NewTimer(s.beginTx)
	m.stations[id] = s
	m.order = append(m.order, s)
	m.gridOK = false // force a rebuild that includes the newcomer
	if cfg.CSThresholdDBm < m.minCSDBm {
		m.minCSDBm = cfg.CSThresholdDBm
		// The horizon may widen for the more sensitive carrier sensor.
		clear(m.rangeCache)
	}
	return s, nil
}

// Station returns the registered station with the given id, or nil.
func (m *Medium) Station(id packet.NodeID) *Station { return m.stations[id] }

// maxRangeFor returns the reception horizon of a frame: the distance
// beyond which its mean rx power — even with the maximum shadowing boost —
// is provably below both the decode floor (for this modulation and size,
// including the maximum fading boost) and every station's carrier-sense
// threshold.
func (m *Medium) maxRangeFor(mod radio.Modulation, bytes int) float64 {
	key := rangeKey{mod.Name, bytes}
	if r, ok := m.rangeCache[key]; ok {
		return r
	}
	floor := m.channel.CertainLossFloorDBm(mod, bytes)
	if m.minCSDBm < floor {
		floor = m.minCSDBm
	}
	r := m.channel.MaxRangeM(floor)
	m.rangeCache[key] = r
	return r
}

// rxCand couples a candidate receiver with its exact position and
// distance from the source at the transmission start (the distance is a
// by-product of the range filter; the power computation reuses it).
type rxCand struct {
	st   *Station
	pos  geom.Point
	dist float64
}

// recipients returns the stations inside maxRange of srcPos at now,
// excluding src. The indexed and scan paths enumerate exactly the same
// set with exactly the same distance test, so they consume identical
// channel randomness downstream. The order is NOT canonical (the indexed
// path yields cell-scan order): per-candidate channel values are
// order-independent (each link owns its random streams), and
// startTransmission restores registration order on the few survivors of
// the certain-loss cull — cheaper than sorting every raw cell-scan
// candidate here.
func (m *Medium) recipients(src *Station, srcPos geom.Point, now time.Duration, maxRange float64) []rxCand {
	scan := m.enum == EnumerateScan || m.enum == EnumerateAuto && len(m.order) < indexMinStations
	if scan || math.IsInf(maxRange, 1) {
		m.stats.ScanQueries++
		out := m.rxc[:0]
		for _, rx := range m.order {
			if rx == src {
				continue
			}
			p := rx.posAt(now)
			if d := srcPos.Dist(p); d <= maxRange {
				out = append(out, rxCand{rx, p, d})
			}
		}
		m.rxc = out
		return out
	}

	// The grid is rebuilt wholesale, from every station's current
	// position, once it is older than the refresh interval.
	if !m.gridOK || now-m.gridAt > indexRefresh {
		m.stats.IndexRebuilds++
		m.pts = m.pts[:0]
		for _, s := range m.order {
			m.pts = append(m.pts, s.posAt(now))
		}
		m.grid.build(m.pts)
		m.gridAt, m.gridOK = now, true
	}
	m.stats.IndexQueries++
	// The grid holds positions sampled at gridAt; a station may have
	// moved since, but no further than its speed bound allows.
	pad := maxSpeedMPS * (now - m.gridAt).Seconds()
	m.candIdx = m.grid.near(srcPos, maxRange+pad, m.candIdx[:0])
	// Cell-scan order; the exact same filter the scan applies.
	srcIdx := int32(src.idx)
	out := m.rxc[:0]
	for _, idx := range m.candIdx {
		if idx == srcIdx {
			continue
		}
		rx := m.order[idx]
		p := rx.posAt(now)
		if d := srcPos.Dist(p); d <= maxRange {
			out = append(out, rxCand{rx, p, d})
		}
	}
	m.rxc = out
	return out
}

// busyFor reports whether any in-flight transmission is sensed above the
// station's carrier-sense threshold (or the station itself is
// transmitting). Transmissions keep no entry for stations beyond their
// horizon or under the certain-loss floor — by construction those arrive
// below every threshold.
func (m *Medium) busyFor(s *Station) bool {
	for _, tx := range m.active {
		if tx.src == s || tx.sensedBy(s) {
			return true
		}
	}
	return false
}

// getTransmission pops a recycled transmission (or allocates the first
// few); dests/pows keep their capacity across reuses.
func (m *Medium) getTransmission() *transmission {
	tx := m.txFree
	if tx == nil {
		return &transmission{}
	}
	m.txFree = tx.next
	tx.next = nil
	return tx
}

// recycleTransmission returns an expired history entry to the free list.
// Only the medium's reference to the frame is dropped: handlers may retain
// the frame itself.
func (m *Medium) recycleTransmission(tx *transmission) {
	tx.src, tx.frame = nil, nil
	for i := range tx.dests {
		tx.dests[i] = nil
		tx.fades[i] = nil
	}
	clear(tx.sensors)
	tx.dests, tx.pows, tx.fades = tx.dests[:0], tx.pows[:0], tx.fades[:0]
	tx.sensors = tx.sensors[:0]
	tx.next = m.txFree
	m.txFree = tx
}

// startTransmission puts a frame on the air from station src.
func (m *Medium) startTransmission(src *Station, f *packet.Frame) {
	now := m.engine.Now()
	mod := src.cfg.Modulation
	bytes := f.WireSize()
	airtime := secondsToDuration(mod.Airtime(bytes))
	srcPos := src.posAt(now)
	cands := m.recipients(src, srcPos, now, m.maxRangeFor(mod, bytes))
	tx := m.getTransmission()
	tx.src, tx.frame, tx.bytes, tx.mod = src, f, bytes, mod
	tx.start, tx.end = now, now+airtime
	tx.edges = m.channel.FrameEdges(mod, bytes)
	// Receivers whose sampled mean power sits below this floor are
	// culled at stage zero: PER is exactly 1.0 whatever the fading draw,
	// the power is too weak to trigger any carrier sensor, and it sits at
	// least ~15 dB under the noise floor — below the interference cut the
	// horizon already applies to out-of-range transmissions. Such
	// receivers leave the dests set entirely and consume no randomness
	// (the shadowing sample above is the last draw they influence).
	// Corrupt-delivery receivers are exempt — their handlers observe
	// every frame's fading sample through RxMeta.SINRdB, so they stay
	// and resolve in full.
	//
	// Deaf receivers that survive the cull are never resolved: nothing
	// observes their fade draw, PER coin or verdict, and each directed
	// link owns its random streams, so skipping them moves no other
	// link's draws. Only their carrier sense matters, which needs the
	// mean power alone: those at or above their threshold become sensors,
	// the rest are culled.
	certainFloor := m.channel.CertainMeanFloorDBm(tx.edges)
	// SoA gather: collect every candidate's link handles and geometry
	// into parallel scratch slices, sweep the mean-power kernel over the
	// whole batch, then cull. Shadow processes advance in candidate
	// order, exactly as the fused per-candidate loop did.
	n := len(cands)
	m.shadowScr = growScratch(m.shadowScr, n)
	m.fadeScr = growScratch(m.fadeScr, n)
	m.distScr = growScratch(m.distScr, n)
	m.posScr = growScratch(m.posScr, n)
	m.powScr = growScratch(m.powScr, n)
	for i, c := range cands {
		link := src.linkTo(c.st)
		m.shadowScr[i] = link.shadow
		m.fadeScr[i] = link.fade
		m.distScr[i] = c.dist
		m.posScr[i] = c.pos
	}
	m.channel.BatchMeanRxPower(m.shadowScr, m.distScr, srcPos, m.posScr, now, m.powScr)
	m.stats.Candidates += uint64(n)
	for i, c := range cands {
		pow := m.powScr[i]
		switch rx := c.st; {
		case pow <= certainFloor && !rx.cfg.DeliverCorrupt:
		case rx.deaf():
			if pow >= rx.cfg.CSThresholdDBm {
				tx.sensors = append(tx.sensors, rx)
			}
		default:
			tx.dests = append(tx.dests, rx)
			tx.pows = append(tx.pows, pow)
			tx.fades = append(tx.fades, m.fadeScr[i])
		}
	}
	m.stats.Sensed += uint64(len(tx.sensors))
	m.stats.Culled += uint64(n - len(tx.dests) - len(tx.sensors))
	// Restore registration order — the ordering contract behind delivery,
	// sensing and trace byte-identity. The candidates arrive in cell-scan
	// order on the indexed path, but after the cull only a survivor or
	// two remain, so this insertion sort is near-free (and a no-op for
	// the exhaustive path, which enumerates in order).
	for i := 1; i < len(tx.dests); i++ {
		for j := i; j > 0 && tx.dests[j].idx < tx.dests[j-1].idx; j-- {
			tx.dests[j], tx.dests[j-1] = tx.dests[j-1], tx.dests[j]
			tx.pows[j], tx.pows[j-1] = tx.pows[j-1], tx.pows[j]
			tx.fades[j], tx.fades[j-1] = tx.fades[j-1], tx.fades[j]
		}
	}
	if cap(tx.draws) < len(tx.dests) {
		tx.draws = make([]radio.FrameDraw, len(tx.dests))
	} else {
		tx.draws = tx.draws[:len(tx.dests)]
	}
	// Every survivor's frame draw and interference-free decision, in one
	// batched kernel pass.
	m.channel.BatchResolve(tx.fades, tx.pows, tx.edges, tx.mod, tx.bytes, tx.draws)
	m.active = append(m.active, tx)
	if airtime > m.maxAirtime {
		m.maxAirtime = airtime
	}
	m.stats.Transmissions++
	if m.traced(src) {
		m.tracer.OnTx(src.id, f, now, airtime)
	}

	// Stations that sense the new transmission abort their contention and
	// wait for the medium to free. The order of these calls is invisible:
	// each only cancels the station's own timer and joins the waitlist,
	// which endTransmission sorts into registration order.
	for i, s := range tx.dests {
		if tx.pows[i] >= s.cfg.CSThresholdDBm {
			s.onMediumBusy()
		}
	}
	for _, s := range tx.sensors {
		s.onMediumBusy()
	}

	m.engine.ScheduleCall(airtime, m.endCall, tx)
}

// endTransmission resolves delivery of tx at each receiver and wakes
// stations that were waiting for an idle medium.
func (m *Medium) endTransmission(tx *transmission) {
	now := m.engine.Now()
	// Remove from active, keep for interference history.
	for i, a := range m.active {
		if a == tx {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	m.history = append(m.history, tx)
	// Prune lazily: retention only bounds memory (the overlap filter
	// below re-checks time windows), so scanning the history on every
	// single end is wasted work on the hot path. The threshold adapts to
	// twice the surviving population, so under sustained traffic the scan
	// amortises to O(1) per transmission while memory stays within 2x of
	// the retention window's true content.
	if len(m.history) >= m.pruneAt {
		m.pruneHistory(now)
		m.pruneAt = 2 * len(m.history)
		if m.pruneAt < 32 {
			m.pruneAt = 32
		}
	}

	// Collect the transmissions that overlapped tx once, instead of
	// rescanning the whole active+history list per receiver: the overlap
	// set is a handful of frames even when the history holds hundreds.
	// History entries are appended at their end instants, so their end
	// times are non-decreasing: scanning newest-first stops at the first
	// entry that ended before tx began, making the collection O(overlap)
	// rather than O(history). The collected suffix is reversed so the
	// overlap order (and with it the interference power-summation order)
	// stays the chronological order the per-receiver rescan used.
	m.overlaps = m.overlaps[:0]
	for _, other := range m.active {
		if other != tx && other.overlaps(tx.start, tx.end) {
			m.overlaps = append(m.overlaps, other)
		}
	}
	histStart := len(m.overlaps)
	for i := len(m.history) - 1; i >= 0; i-- {
		other := m.history[i]
		if other.end <= tx.start {
			break
		}
		if other != tx && other.start < tx.end {
			m.overlaps = append(m.overlaps, other)
		}
	}
	for i, j := histStart, len(m.overlaps)-1; i < j; i, j = i+1, j-1 {
		m.overlaps[i], m.overlaps[j] = m.overlaps[j], m.overlaps[i]
	}

	m.finishTransmission(tx)
	for i := range tx.dests {
		m.deliver(tx, i)
	}

	// The medium may have become idle for stations with pending traffic.
	// Exactly the stations that flagged themselves waiting are woken, in
	// registration order — the order the historical full scan used — so
	// same-instant contention events keep their scheduling sequence.
	//
	// The snapshot is taken BEFORE the sender re-contends: if its next
	// frame finds the medium still busy (a transmission it senses is
	// still on air), its re-registration must land on the fresh waitlist
	// and survive to the next wake-up. The sender itself is never in the
	// snapshot — it cannot have been waiting while transmitting.
	m.wake = append(m.wake[:0], m.waitlist...)
	m.waitlist = m.waitlist[:0]
	for _, s := range m.wake {
		s.queuedWait = false
	}
	sortStationsByIdx(m.wake)
	tx.src.onOwnTxEnd()
	for _, s := range m.wake {
		if s.wantsMedium() {
			s.onMediumMaybeIdle()
		} else if s.waiting {
			// Still blocked for another reason; keep it on the list for
			// the next wake-up.
			m.enqueueWaiting(s)
		}
	}
}

// sortStationsByIdx restores registration order — the ordering contract
// behind indexed/scan byte-identity. Insertion sort: the slices are
// small and allocation matters on these paths.
func sortStationsByIdx(ss []*Station) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].idx < ss[j-1].idx; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// enqueueWaiting registers a station for the next medium-idle wake-up.
func (m *Medium) enqueueWaiting(s *Station) {
	if !s.queuedWait {
		s.queuedWait = true
		m.waitlist = append(m.waitlist, s)
	}
}

// finishTransmission runs the batched delivery stages over tx's receiver
// set: MAC verdicts (half-duplex, capture) into a skip mask, per-receiver
// interference, then radio.BatchFinish for the survivors. Stream effects
// are identical to the historical per-receiver loop — a verdicted
// receiver never reaches the channel decision, so no late coin is drawn
// for it. deliver then replays verdicts and decisions as per-receiver
// side effects in registration order.
func (m *Medium) finishTransmission(tx *transmission) {
	n := len(tx.dests)
	m.verdicts = growScratch(m.verdicts, n)
	m.skip = growScratch(m.skip, n)
	m.interf = growScratch(m.interf, n)
	m.decs = growScratch(m.decs, n)
	if len(m.overlaps) == 0 {
		// Nothing was on the air during tx's window: no half-duplex
		// conflicts, no interference, no capture checks.
		negInf := math.Inf(-1)
		for i := 0; i < n; i++ {
			m.verdicts[i] = 0
			m.skip[i] = false
			m.interf[i] = negInf
		}
	} else {
		noise := m.channel.NoiseFloorDBm()
		for i, rx := range tx.dests {
			m.verdicts[i] = 0
			m.skip[i] = false
			// Half-duplex: a station transmitting during any part of the
			// frame cannot receive it. A transmission of rx's own
			// overlapping tx is, by definition, in the overlap set.
			half := false
			for _, other := range m.overlaps {
				if other.src == rx {
					half = true
					break
				}
			}
			if half {
				m.verdicts[i] = DropHalfDuplex
				m.skip[i] = true
				continue
			}
			itf := m.interferenceAt(rx)
			m.interf[i] = itf
			// Non-negligible concurrent energy: same-band interference
			// is not noise-like for DSSS, so apply a capture rule — the
			// frame survives only if it dominates the interferers by the
			// capture margin.
			if itf > noise-10 && tx.pows[i]-itf < captureThresholdDB {
				m.verdicts[i] = DropCollision
				m.skip[i] = true
			}
		}
	}
	m.channel.BatchFinish(tx.fades, tx.draws, tx.pows, m.interf, m.skip, tx.edges, tx.mod, tx.bytes, m.decs)
}

// deliver applies receiver tx.dests[i]'s precomputed verdict or channel
// decision (see finishTransmission): counters, trace events and handler
// dispatch — the per-receiver side effects, in registration order.
func (m *Medium) deliver(tx *transmission, i int) {
	rx := tx.dests[i]
	now := m.engine.Now()
	if v := m.verdicts[i]; v != 0 {
		m.stats.Drops[v]++
		if m.traced(rx) {
			m.tracer.OnDrop(rx.id, tx.frame, now, v)
		}
		return
	}

	decision := m.decs[i]
	meta := RxMeta{At: now, RxPowerDBm: decision.RxPowerDBm, SINRdB: decision.SINRdB}
	if !decision.Received {
		m.stats.Drops[DropChannel]++
		if m.traced(rx) {
			m.tracer.OnDrop(rx.id, tx.frame, now, DropChannel)
		}
		if rx.cfg.DeliverCorrupt && rx.handler != nil {
			meta.Corrupt = true
			rx.handler.HandleFrame(tx.frame, meta)
		}
		return
	}
	m.stats.Deliveries++
	if m.traced(rx) {
		m.tracer.OnRx(rx.id, tx.frame, meta)
	}
	if rx.handler != nil {
		rx.handler.HandleFrame(tx.frame, meta)
	}
}

// traced reports whether s's events reach the tracer, counting the
// skipped call when they do not.
func (m *Medium) traced(s *Station) bool {
	if s.untraced {
		m.stats.Untraced++
		return false
	}
	return true
}

// interferenceAt power-sums the transmissions that overlapped the frame
// being delivered (precomputed in m.overlaps by endTransmission) at
// receiver rx, in dBm. Returns -Inf when there is none. Transmissions
// whose dests set excluded rx — out of horizon, or mean power under the
// certain-loss floor — contribute nothing: their power at rx is
// provably below the certain-loss floor, i.e. at least ~15 dB under the
// noise floor.
func (m *Medium) interferenceAt(rx *Station) float64 {
	total := math.Inf(-1)
	for _, other := range m.overlaps {
		if other.src == rx {
			continue
		}
		if p, ok := other.powerAt(rx); ok {
			total = radio.CombineDBm(total, p)
		}
	}
	return total
}

// historyRetention is how long ended transmissions stay queryable. It is
// widened by the longest airtime seen so that any frame a history entry
// could overlap is still covered.
const historyRetention = 100 * time.Millisecond

// pruneHistory drops ended transmissions that can no longer overlap
// anything still on the air or future frames. It runs on every
// transmission end — the only time history grows — so under sustained
// traffic the history length is bounded by the retention window times the
// transmission rate.
func (m *Medium) pruneHistory(now time.Duration) {
	retention := historyRetention
	if m.maxAirtime > retention {
		retention = m.maxAirtime
	}
	cutoff := now - retention
	keep := m.history[:0]
	for _, tx := range m.history {
		if tx.end >= cutoff {
			keep = append(keep, tx)
		} else {
			m.recycleTransmission(tx)
		}
	}
	// Zero the tail so the slice drops its references to recycled entries.
	for i := len(keep); i < len(m.history); i++ {
		m.history[i] = nil
	}
	m.history = keep
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// growScratch resizes a reusable scratch slice to n elements without
// zeroing, reallocating only when capacity grows.
func growScratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
