package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/sim"
)

// Config parameterises a traffic simulation.
type Config struct {
	// Network is the road geometry. Required.
	Network *Network
	// Seed roots every per-vehicle random stream (turn choices).
	Seed int64
}

const (
	// tickLen is the fixed integration step.
	tickLen = 100 * time.Millisecond
	// recordEvery is how many ticks pass between exposed trajectory
	// samples (2 Hz). Lane and link changes always force a sample.
	recordEvery = 5
	// safeDecelMPS2 is the MOBIL safety bound b_safe: a lane change must
	// not force the new follower below -b_safe.
	safeDecelMPS2 = 4
	// laneChangeHoldoff is the per-vehicle cooldown between lane changes.
	laneChangeHoldoff = 5 * time.Second
	// stopMarginM is how far before the link end vehicles halt at a red
	// signal.
	stopMarginM = 2
)

// SpeedCap limits a vehicle's desired speed during a time window — the
// deterministic perturbation used to trigger stop-and-go waves (a driver
// rubber-necking, a slow truck merging).
type SpeedCap struct {
	From, To time.Duration
	MaxMPS   float64
}

// VehicleSpec is one vehicle's initial state and behaviour.
type VehicleSpec struct {
	Driver DriverParams
	// Link, Lane and ArcM place the vehicle; SpeedMPS is its initial
	// speed.
	Link     LinkID
	Lane     int
	ArcM     float64
	SpeedMPS float64
	// Route, when non-empty, is the link sequence the vehicle drives
	// (Route[0] must equal Link): cyclic by default, driven once when
	// ExitAtEnd is set. Empty means random turns drawn from the
	// vehicle's own seeded stream.
	Route []LinkID
	// Caps are time-windowed speed limits (perturbations).
	Caps []SpeedCap
	// EnterAt delays the vehicle's injection (demand-driven arrivals):
	// until the first tick at or after EnterAt it sits parked at its
	// spec position, outside every lane and invisible to car-following,
	// then it enters live traffic at SpeedMPS. Zero means present from
	// the start.
	EnterAt time.Duration
	// ExitAtEnd makes Route an open path driven exactly once: at the end
	// of the final route link the vehicle leaves traffic — removed from
	// its lane, parked at the link end with zero speed (its final
	// recorded sample). Requires a non-empty, loop-free Route.
	ExitAtEnd bool
}

type vehicle struct {
	id   int
	drv  DriverParams
	link *Link
	lane int
	arc  float64
	v    float64
	a    float64
	caps []SpeedCap

	route    []LinkID
	routePos int
	next     *Link
	rng      *rand.Rand

	enterAt   time.Duration
	pending   bool // not yet injected (EnterAt in the future)
	exitAtEnd bool
	exited    bool // completed its OD route and left traffic

	lastChange time.Duration
	changed    bool
}

// Simulation steps a closed-loop vehicle population over a road network
// with a fixed tick. It is single-threaded and deterministic; see the
// package doc for the contract.
type Simulation struct {
	cfg  Config
	net  *Network
	vehs []*vehicle
	// lanes[link][lane] holds that lane's vehicles ordered by ascending
	// arc. The ordering is the O(1) leader/gap structure: a vehicle's
	// leader is simply the next slice element.
	lanes [][][]*vehicle
	now   time.Duration
	tick  int
	// actuated holds the per-signal controller state of queue-actuated
	// signals, indexed by SignalID (untouched for fixed-cycle signals).
	actuated []actuatedState
	// green[link] is whether the link sees green this tick, the table
	// every car-following and lane-change decision of the tick reads.
	// refreshGreens keeps it current once per tick, rewriting only the
	// links of signals whose display changed (shown, by SignalID).
	green []bool
	shown []display
	// tracks[id] is vehicle id's recorded track, and sum summarises
	// every sample in record order: the world World returns.
	tracks []track
	sum    summer
}

// display is what one signal shows, as last written into the green
// table: the green links of its current phase (none in a clearance) and,
// under fixed-cycle control, the instant that phase ends.
type display struct {
	on    []LinkID
	until time.Duration
}

// actuatedState is one actuated signal's controller: which phase shows
// green, when that green began, and the all-red clearance window between
// phases. It is pure traffic state — advanced only by step — so actuated
// worlds keep the bit-reproducibility contract.
type actuatedState struct {
	phase      int
	greenStart time.Duration
	inClear    bool
	clearUntil time.Duration
}

// New validates the configuration and vehicle placement and returns a
// ready simulation with every vehicle's initial sample recorded.
func New(cfg Config, specs []VehicleSpec) (*Simulation, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("traffic: nil network")
	}
	if err := cfg.Network.validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("traffic: no vehicles")
	}
	s := &Simulation{
		cfg:    cfg,
		net:    cfg.Network,
		lanes:  make([][][]*vehicle, len(cfg.Network.Links)),
		tracks: make([]track, len(specs)),
	}
	for i, l := range s.net.Links {
		s.lanes[i] = make([][]*vehicle, l.Lanes)
	}
	s.actuated = make([]actuatedState, len(s.net.Signals))
	s.green = make([]bool, len(s.net.Links))
	for i, l := range s.net.Links {
		s.green[i] = l.Signal == NoSignal
	}
	s.shown = make([]display, len(s.net.Signals))
	s.refreshGreens()
	for i, spec := range specs {
		veh, err := s.newVehicle(i, spec)
		if err != nil {
			return nil, fmt.Errorf("traffic: vehicle %d: %w", i, err)
		}
		s.vehs = append(s.vehs, veh)
		s.tracks[i].veh = i
		if !veh.pending {
			s.lanes[veh.link.ID][veh.lane] = append(s.lanes[veh.link.ID][veh.lane], veh)
		}
	}
	for li := range s.lanes {
		for lane := range s.lanes[li] {
			sortLane(s.lanes[li][lane])
		}
	}
	for _, veh := range s.vehs {
		if veh.pending {
			// The pre-entry sample parks the vehicle at its entry point
			// with zero speed, so its replayed track holds it there from
			// t=0 (a model needs a track even before injection).
			s.record(veh, 0)
		} else {
			s.record(veh, veh.v)
		}
	}
	return s, nil
}

func (s *Simulation) newVehicle(id int, spec VehicleSpec) (*vehicle, error) {
	if err := spec.Driver.validate(); err != nil {
		return nil, err
	}
	if spec.Link < 0 || int(spec.Link) >= len(s.net.Links) {
		return nil, fmt.Errorf("link %d out of range", spec.Link)
	}
	l := s.net.link(spec.Link)
	if spec.Lane < 0 || spec.Lane >= l.Lanes {
		return nil, fmt.Errorf("lane %d out of range [0,%d)", spec.Lane, l.Lanes)
	}
	if spec.ArcM < 0 || spec.ArcM >= l.Length() {
		return nil, fmt.Errorf("arc %v out of range [0,%v)", spec.ArcM, l.Length())
	}
	if spec.SpeedMPS < 0 {
		return nil, fmt.Errorf("speed %v", spec.SpeedMPS)
	}
	if spec.EnterAt < 0 {
		return nil, fmt.Errorf("enter time %v", spec.EnterAt)
	}
	if spec.ExitAtEnd && len(spec.Route) == 0 {
		return nil, fmt.Errorf("exit-at-end without a route")
	}
	for i := range spec.Route {
		if spec.ExitAtEnd {
			if s.net.link(spec.Route[i]).loops() {
				return nil, fmt.Errorf("route hop %d: OD route through loop link %d never ends", i, spec.Route[i])
			}
			if i+1 == len(spec.Route) {
				break // open path: no wrap-around hop
			}
		}
		cur, nxt := spec.Route[i], spec.Route[(i+1)%len(spec.Route)]
		found := false
		for _, n := range s.net.link(cur).Next {
			if n == nxt {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("route hop %d: link %d does not continue onto %d", i, cur, nxt)
		}
	}
	if len(spec.Route) > 0 && spec.Route[0] != spec.Link {
		return nil, fmt.Errorf("route starts at link %d, vehicle on %d", spec.Route[0], spec.Link)
	}
	veh := &vehicle{
		id:         id,
		drv:        spec.Driver,
		link:       l,
		lane:       spec.Lane,
		arc:        spec.ArcM,
		v:          spec.SpeedMPS,
		caps:       spec.Caps,
		route:      spec.Route,
		rng:        sim.Stream(s.cfg.Seed, fmt.Sprintf("traffic-veh-%d", id)),
		enterAt:    spec.EnterAt,
		pending:    spec.EnterAt > 0,
		exitAtEnd:  spec.ExitAtEnd,
		lastChange: -time.Hour,
	}
	veh.chooseNext(s.net)
	return veh, nil
}

// chooseNext picks the vehicle's continuation link. An exit-at-end
// vehicle on its final route link gets nil: crossing that link's end
// means leaving traffic, not transitioning.
func (v *vehicle) chooseNext(net *Network) {
	l := v.link
	switch {
	case l.loops():
		v.next = l
	case len(v.route) > 0:
		if v.exitAtEnd {
			if v.routePos+1 >= len(v.route) {
				v.next = nil
				return
			}
			v.next = net.link(v.route[v.routePos+1])
			return
		}
		v.next = net.link(v.route[(v.routePos+1)%len(v.route)])
	case len(l.Next) == 1:
		v.next = net.link(l.Next[0])
	default:
		v.next = net.link(l.Next[v.rng.Intn(len(l.Next))])
	}
}

// desiredSpeed is the effective v0: driver preference capped by the link
// limit and any active perturbation window.
func (v *vehicle) desiredSpeed(now time.Duration) float64 {
	v0 := math.Min(v.drv.DesiredSpeedMPS, v.link.SpeedLimitMPS)
	for _, c := range v.caps {
		if now >= c.From && now < c.To && c.MaxMPS < v0 {
			v0 = c.MaxMPS
		}
	}
	return math.Max(v0, 0.1)
}

// record appends the vehicle's current position, at speed v, to its
// track as one exposed sample: the simulation's only trajectory output.
func (s *Simulation) record(veh *vehicle, v float64) {
	tr := &s.tracks[veh.id]
	tr.samples = append(tr.samples, sample{
		at: s.now, link: int32(veh.link.ID), lane: int32(veh.lane), arc: veh.arc, v: v,
	})
	s.sum.add(v)
}

// World returns the world recorded so far, bound to the simulation's
// network: every vehicle's samples up to the current clock. Later steps
// leave it unchanged.
func (s *Simulation) World() *World {
	return &World{net: s.net, tracks: slices.Clone(s.tracks), sum: s.sum}
}

// sortLane restores ascending-arc order; lanes are nearly sorted every
// tick, so insertion sort is O(n) amortised.
func sortLane(list []*vehicle) {
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && laneLess(list[j], list[j-1]); j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
}

func laneLess(a, b *vehicle) bool {
	if a.arc != b.arc {
		return a.arc < b.arc
	}
	return a.id < b.id
}

// step advances every vehicle by one tick.
func (s *Simulation) step() {
	dt := tickLen.Seconds()

	// 1. Restore per-lane ordering. This must precede injection: the
	// previous tick's link transitions insert vehicles by their stale
	// pre-update arcs, so until this pass the lists are only nearly
	// sorted and a binary search could report the wrong entry leader.
	for li := range s.lanes {
		for lane := range s.lanes[li] {
			sortLane(s.lanes[li][lane])
		}
	}

	// 1b. Inject pending vehicles whose entry time has arrived (ID
	// order), but only once their entry slot has safe bumper gaps: under
	// saturation a queue can stand on the origin, and materialising a
	// vehicle inside it would overlap trajectories (and let the entrant
	// leapfrog a stopped leader on its first tick). A blocked vehicle
	// simply stays parked and retries next tick — spillback delaying
	// demand, deterministically. Sorted insertion into the sorted lists
	// keeps the ordering for everything downstream. The activation
	// sample is recorded with the others at the END of the step (via the
	// changed flag), like every sample: a sample always holds the
	// vehicle's exact state at its own timestamp, so a replayed track
	// equals PositionNow at every recorded instant.
	for _, veh := range s.vehs {
		if veh.pending && veh.enterAt <= s.now && s.entryClear(veh, dt) {
			veh.pending = false
			s.insertIntoLane(veh)
			veh.changed = true
		}
	}

	// 2. Advance actuated signal controllers on the sorted pre-tick
	// state, then compute car-following accelerations against the
	// resulting displays.
	s.stepSignals()
	s.refreshGreens()
	for li, lanes := range s.lanes {
		l := s.net.Links[li]
		stopLine := l.Length() - stopMarginM
		red := !s.green[li]
		for _, list := range lanes {
			for i, veh := range list {
				v0 := veh.desiredSpeed(s.now)
				a := veh.drv.idmAccel(veh.v, 0, math.Inf(1), v0)
				switch {
				case i+1 < len(list):
					lead := list[i+1]
					gap := lead.arc - lead.drv.LengthM - veh.arc
					a = math.Min(a, veh.drv.idmAccel(veh.v, lead.v, gap, v0))
				case l.loops() && len(list) > 0:
					// Wrap-around leader; alone, a vehicle follows its
					// own tail a full circumference ahead.
					lead := list[0]
					gap := l.Length() - veh.arc + lead.arc - lead.drv.LengthM
					a = math.Min(a, veh.drv.idmAccel(veh.v, lead.v, gap, v0))
				case veh.next != nil:
					// Empty lane ahead: defer to the first vehicle on
					// the chosen next link.
					tl := veh.next
					tLane := veh.lane
					if tLane >= tl.Lanes {
						tLane = tl.Lanes - 1
					}
					if nlist := s.lanes[tl.ID][tLane]; len(nlist) > 0 {
						lead := nlist[0]
						gap := l.Length() - veh.arc + lead.arc - lead.drv.LengthM
						a = math.Min(a, veh.drv.idmAccel(veh.v, lead.v, gap, v0))
					}
				}
				if red && veh.arc < stopLine {
					a = math.Min(a, veh.drv.idmAccel(veh.v, 0, stopLine-veh.arc, v0))
				}
				veh.a = a
			}
		}
	}

	// 3. MOBIL lane changes, in vehicle-ID order.
	for _, veh := range s.vehs {
		if veh.pending || veh.exited {
			continue
		}
		s.maybeChangeLane(veh)
	}

	// 4. Integrate. Positions move with the pre-update speed so one-tick
	// linear extrapolation of a sample is exact (see package doc).
	for _, veh := range s.vehs {
		if veh.pending || veh.exited {
			continue
		}
		newArc := veh.arc + veh.v*dt
		veh.v = math.Max(0, veh.v+veh.a*dt)
		l := veh.link
		if l.loops() {
			for newArc >= l.Length() {
				newArc -= l.Length()
			}
		} else {
			for newArc >= l.Length() {
				if veh.exitAtEnd && veh.next == nil {
					// Destination reached: leave traffic and park at the
					// link end; the final sample pins the position there.
					s.removeFromLane(veh)
					veh.exited = true
					veh.v, veh.a = 0, 0
					newArc = l.Length()
					veh.changed = true
					break
				}
				newArc -= l.Length()
				s.removeFromLane(veh)
				if len(veh.route) > 0 {
					veh.routePos++
				}
				veh.link = veh.next
				if veh.lane >= veh.link.Lanes {
					veh.lane = veh.link.Lanes - 1
				}
				veh.chooseNext(s.net)
				s.insertIntoLane(veh)
				veh.changed = true
				l = veh.link
			}
		}
		veh.arc = newArc
	}

	// 5. Advance the clock and record samples. Parked vehicles (pending
	// entry, or exited and already pinned) record nothing.
	s.tick++
	s.now += tickLen
	atSample := s.tick%recordEvery == 0
	for _, veh := range s.vehs {
		if veh.pending || (veh.exited && !veh.changed) {
			continue
		}
		if atSample || veh.changed {
			s.record(veh, veh.v)
			veh.changed = false
		}
	}
}

// entryClear reports whether a pending vehicle's entry slot is safe:
// the would-be leader must leave the entrant's standstill gap plus the
// distance the entrant covers on its first tick (positions move with
// the pre-update speed, so this is what prevents day-one overlap), and
// the would-be follower must keep its own standstill gap.
func (s *Simulation) entryClear(veh *vehicle, dt float64) bool {
	list := s.lanes[veh.link.ID][veh.lane]
	leader, follower := laneNeighbors(list, veh, veh.link)
	if leader != nil && gapAhead(veh, leader, veh.link) < veh.drv.MinGapM+veh.v*dt {
		return false
	}
	if follower != nil && gapAhead(follower, veh, veh.link) < follower.drv.MinGapM {
		return false
	}
	return true
}

// stepSignals advances every actuated signal's controller by one tick:
// clearance first, then min-green hold, then presence-based extension
// until the stop-line detector empties (gap-out) or MaxGreen is reached
// (max-out).
func (s *Simulation) stepSignals() {
	for i, sig := range s.net.Signals {
		ap := sig.Actuated
		if ap == nil {
			continue
		}
		st := &s.actuated[i]
		if st.inClear {
			if s.now < st.clearUntil {
				continue
			}
			st.inClear = false
			st.phase = (st.phase + 1) % len(sig.Phases)
			st.greenStart = s.now
		}
		elapsed := s.now - st.greenStart
		if elapsed < ap.MinGreen {
			continue
		}
		if elapsed < ap.MaxGreen && s.detectorOccupied(sig.Phases[st.phase].Green, ap.DetectorM) {
			continue
		}
		st.inClear = true
		st.clearUntil = s.now + ap.AllRed
	}
}

// detectorOccupied reports whether any vehicle sits within the last
// detectorM metres of any lane of the given links — the stop-line
// presence sensor actuated control extends green on. Lanes are sorted
// ascending by arc, so only each lane's front vehicle needs checking.
func (s *Simulation) detectorOccupied(links []LinkID, detectorM float64) bool {
	for _, id := range links {
		cut := s.net.Links[id].Length() - detectorM
		for _, lane := range s.lanes[id] {
			if n := len(lane); n > 0 && lane[n-1].arc >= cut {
				return true
			}
		}
	}
	return false
}

// refreshGreens brings the per-link green table up to the current tick:
// links without a signal are always green (set once, in New), and each
// signal shows green to the links of its current phase that it controls.
// Fixed-cycle signals re-evaluate their schedule only once the phase
// last shown has ended; actuated signals read the controller state
// stepSignals just advanced (no green during clearance). Only a changed
// display rewrites links.
func (s *Simulation) refreshGreens() {
	for i, sig := range s.net.Signals {
		d := &s.shown[i]
		var on []LinkID
		if sig.Actuated == nil {
			if s.now < d.until {
				continue
			}
			on, d.until = sig.phaseAt(s.now)
		} else if st := &s.actuated[i]; !st.inClear {
			on = sig.Phases[st.phase].Green
		}
		// Phases hold their own green slices, so the same phase shows
		// the same backing array.
		if len(on) == len(d.on) && (len(on) == 0 || &on[0] == &d.on[0]) {
			continue
		}
		for _, id := range d.on {
			if s.net.Links[id].Signal == sig.ID {
				s.green[id] = false
			}
		}
		for _, id := range on {
			if s.net.Links[id].Signal == sig.ID {
				s.green[id] = true
			}
		}
		d.on = on
	}
}

// maybeChangeLane applies the simplified MOBIL rule to one vehicle.
func (s *Simulation) maybeChangeLane(veh *vehicle) {
	l := veh.link
	if l.Lanes < 2 || s.now-veh.lastChange < laneChangeHoldoff {
		return
	}
	v0 := veh.desiredSpeed(s.now)
	bestLane, bestGain := -1, veh.drv.ChangeThresholdMPS2
	var bestFollower *vehicle
	var bestFollowerAccel float64
	for _, target := range [2]int{veh.lane - 1, veh.lane + 1} {
		if target < 0 || target >= l.Lanes {
			continue
		}
		list := s.lanes[l.ID][target]
		leader, follower := laneNeighbors(list, veh, l)
		// Safety: room on both sides, and the new follower never forced
		// below -b_safe.
		aNew := veh.drv.idmAccel(veh.v, 0, math.Inf(1), v0)
		if leader != nil {
			gap := gapAhead(veh, leader, l)
			if gap < 0.5 {
				continue
			}
			aNew = math.Min(aNew, veh.drv.idmAccel(veh.v, leader.v, gap, v0))
		}
		red := !s.green[l.ID]
		if stopLine := l.Length() - stopMarginM; red && veh.arc < stopLine {
			aNew = math.Min(aNew, veh.drv.idmAccel(veh.v, 0, stopLine-veh.arc, v0))
		}
		followerLoss := 0.0
		var aFollowerNew float64
		if follower != nil {
			gap := gapAhead(follower, veh, l)
			if gap < 0.5 {
				continue
			}
			aFollowerNew = follower.drv.idmAccel(follower.v, veh.v, gap, follower.desiredSpeed(s.now))
			if aFollowerNew < -safeDecelMPS2 {
				continue
			}
			followerLoss = math.Max(0, follower.a-aFollowerNew)
		}
		gain := aNew - veh.a - veh.drv.Politeness*followerLoss
		if gain > bestGain {
			bestLane, bestGain = target, gain
			bestFollower, bestFollowerAccel = follower, aFollowerNew
		}
	}
	if bestLane < 0 {
		return
	}
	s.removeFromLane(veh)
	veh.lane = bestLane
	s.insertIntoLane(veh)
	veh.lastChange = s.now
	veh.changed = true
	// The vehicle keeps its previously computed acceleration for this
	// tick; the new follower reacts immediately so the pair cannot step
	// into the same space.
	if bestFollower != nil && bestFollowerAccel < bestFollower.a {
		bestFollower.a = bestFollowerAccel
	}
}

// laneNeighbors finds the would-be leader and follower of veh in an
// adjacent lane's ordered list, wrapping on loop links.
func laneNeighbors(list []*vehicle, veh *vehicle, l *Link) (leader, follower *vehicle) {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if laneLess(list[mid], veh) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) {
		leader = list[lo]
	}
	if lo > 0 {
		follower = list[lo-1]
	}
	if l.loops() && len(list) > 0 {
		if leader == nil {
			leader = list[0]
		}
		if follower == nil {
			follower = list[len(list)-1]
		}
	}
	return leader, follower
}

// gapAhead is the bumper-to-bumper gap from back to lead, unwrapping on
// loop links.
func gapAhead(back, lead *vehicle, l *Link) float64 {
	d := lead.arc - back.arc
	if l.loops() && d < 0 {
		d += l.Length()
	}
	return d - lead.drv.LengthM
}

func (s *Simulation) removeFromLane(veh *vehicle) {
	list := s.lanes[veh.link.ID][veh.lane]
	for i, v := range list {
		if v == veh {
			s.lanes[veh.link.ID][veh.lane] = append(list[:i], list[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("traffic: vehicle %d not in lane %d/%d", veh.id, veh.link.ID, veh.lane))
}

func (s *Simulation) insertIntoLane(veh *vehicle) {
	list := s.lanes[veh.link.ID][veh.lane]
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if laneLess(list[mid], veh) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	list = append(list, nil)
	copy(list[lo+1:], list[lo:])
	list[lo] = veh
	s.lanes[veh.link.ID][veh.lane] = list
}

// RunTo steps the simulation until its clock reaches d.
func (s *Simulation) RunTo(d time.Duration) {
	for s.now < d {
		s.step()
	}
}

// PositionNow returns vehicle id's exact current plane position (not the
// sampled track). It is the replay fidelity oracle: a World's model
// equals it at every recorded instant.
func (s *Simulation) PositionNow(id int) geom.Point {
	veh := s.vehs[id]
	return veh.link.LanePoint(veh.lane, veh.arc)
}

// MeanSpeedMPS averages the instantaneous speeds of the vehicles in
// traffic (pending and exited vehicles are parked, not traffic).
func (s *Simulation) MeanSpeedMPS() float64 {
	var sum float64
	active := 0
	for _, veh := range s.vehs {
		if veh.pending || veh.exited {
			continue
		}
		sum += veh.v
		active++
	}
	if active == 0 {
		return 0
	}
	return sum / float64(active)
}
