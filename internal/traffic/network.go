package traffic

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/geom"
)

// LinkID indexes a directed link in a Network.
type LinkID int

// SignalID indexes a signal in a Network; NoSignal marks an uncontrolled
// link exit.
type SignalID int

// NoSignal marks a link whose downstream end has no traffic light.
const NoSignal SignalID = -1

// Link is one directed roadway: a centreline polyline with parallel
// lanes offset to the right of the direction of travel. Vehicles measure
// their position as arc length along the centreline.
type Link struct {
	ID LinkID
	// Centre is the centreline geometry.
	Centre *geom.Polyline
	// Lanes is the lane count (>= 1). Lane 0 is closest to the
	// centreline.
	Lanes int
	// LaneWidthM is the lateral lane spacing.
	LaneWidthM float64
	// SpeedLimitMPS caps every driver's desired speed on this link.
	SpeedLimitMPS float64
	// Next lists the links a vehicle may continue onto at the
	// downstream end. A link listing itself is a closed loop (ring
	// road): the arc wraps instead of transitioning.
	Next []LinkID
	// Signal is the traffic light controlling this link's downstream
	// exit, or NoSignal.
	Signal SignalID
}

// Length returns the centreline arc length.
func (l *Link) Length() float64 { return l.Centre.Length() }

// loops reports whether the link is a closed loop: it lists itself as its
// only successor (validate rejects a self-successor among others). It is
// derived, not stored, so validating a network never writes to it and
// concurrent simulations may share one.
func (l *Link) loops() bool { return len(l.Next) == 1 && l.Next[0] == l.ID }

// LanePoint maps road coordinates (lane, arc) to the plane: the
// centreline point at arc, offset half a lane plus lane widths to the
// right of the direction of travel.
func (l *Link) LanePoint(lane int, arc float64) geom.Point {
	if l.loops() {
		total := l.Length()
		arc = math.Mod(arc, total)
		if arc < 0 {
			arc += total
		}
	}
	p, h := l.Centre.PointHeading(arc)
	right := geom.Vec{DX: h.DY, DY: -h.DX}
	off := (float64(lane) + 0.5) * l.LaneWidthM
	return p.Add(right.Scale(off))
}

// SignalPhase is one step of a signal's phase sequence: the given
// incoming links see green; everyone else sees red. Under fixed-cycle
// control the phase lasts Dur; under actuated control (Signal.Actuated)
// Dur is ignored and the controller times the phase from its sensors.
type SignalPhase struct {
	Dur   time.Duration
	Green []LinkID
}

// ActuatedParams configures queue-actuated control of a signal. Each
// phase's green holds for at least MinGreen, then extends while the
// stop-line occupancy sensor — the last DetectorM metres of any lane of
// any green approach — detects a vehicle, and gaps out the tick the
// detector empties. MaxGreen is the hard max-out bound: presence can
// extend a green up to it but never past it. Phases are separated by an
// AllRed clearance and cycle in Phases order. The controller's state is
// deterministic traffic state, so actuated worlds stay bit-reproducible
// and replayable.
type ActuatedParams struct {
	MinGreen  time.Duration
	MaxGreen  time.Duration
	AllRed    time.Duration
	DetectorM float64
}

func (a ActuatedParams) validate() error {
	switch {
	case a.MinGreen <= 0:
		return fmt.Errorf("traffic: actuated min green %v", a.MinGreen)
	case a.MaxGreen < a.MinGreen:
		return fmt.Errorf("traffic: actuated max green %v < min green %v", a.MaxGreen, a.MinGreen)
	case a.AllRed < 0:
		return fmt.Errorf("traffic: actuated all-red %v", a.AllRed)
	case a.DetectorM <= 0:
		return fmt.Errorf("traffic: actuated detector %v m", a.DetectorM)
	}
	return nil
}

// DefaultActuatedParams returns an urban-arterial calibration: a short
// guaranteed green, a 30 s max-out, and a 40 m stop-line detector.
func DefaultActuatedParams() ActuatedParams {
	return ActuatedParams{
		MinGreen:  6 * time.Second,
		MaxGreen:  30 * time.Second,
		AllRed:    4 * time.Second,
		DetectorM: 40,
	}
}

// Signal is a traffic light: a phase sequence driven either by a fixed
// cycle (the sum of the phase durations, entered at (now + Offset)
// modulo the cycle) or, when Actuated is set, by queue-length sensors
// (Offset and phase durations are then ignored; the phase timing lives
// in the Simulation's controller state).
type Signal struct {
	ID     SignalID
	Phases []SignalPhase
	Offset time.Duration
	// Actuated switches the signal to queue-actuated control.
	Actuated *ActuatedParams
}

// cycle returns the total cycle duration.
func (s *Signal) cycle() time.Duration {
	var c time.Duration
	for _, p := range s.Phases {
		c += p.Dur
	}
	return c
}

// phaseAt returns the green links of the fixed-cycle phase showing at now
// (none during a clearance) and the instant that phase ends. The cycle
// must be positive.
func (s *Signal) phaseAt(now time.Duration) (green []LinkID, until time.Duration) {
	cycle := s.cycle()
	t := (now + s.Offset) % cycle
	if t < 0 {
		t += cycle
	}
	for _, p := range s.Phases {
		if t < p.Dur {
			return p.Green, now + p.Dur - t
		}
		t -= p.Dur
	}
	panic("traffic: phase scan ran past a positive cycle")
}

// Network is a set of directed links plus the signals controlling them.
type Network struct {
	Links   []*Link
	Signals []*Signal
}

// link returns the link with the given ID.
func (n *Network) link(id LinkID) *Link { return n.Links[id] }

// validate checks internal consistency: IDs match indices, successors
// exist, geometry and lane counts are sane.
func (n *Network) validate() error {
	if len(n.Links) == 0 {
		return fmt.Errorf("traffic: network has no links")
	}
	for i, l := range n.Links {
		if l.ID != LinkID(i) {
			return fmt.Errorf("traffic: link %d has ID %d", i, l.ID)
		}
		if l.Centre == nil {
			return fmt.Errorf("traffic: link %d has no centreline", i)
		}
		if l.Lanes < 1 {
			return fmt.Errorf("traffic: link %d has %d lanes", i, l.Lanes)
		}
		if l.LaneWidthM <= 0 {
			return fmt.Errorf("traffic: link %d lane width %v", i, l.LaneWidthM)
		}
		if l.SpeedLimitMPS <= 0 {
			return fmt.Errorf("traffic: link %d speed limit %v", i, l.SpeedLimitMPS)
		}
		if len(l.Next) == 0 {
			return fmt.Errorf("traffic: link %d is a dead end", i)
		}
		for _, nx := range l.Next {
			if nx < 0 || int(nx) >= len(n.Links) {
				return fmt.Errorf("traffic: link %d successor %d out of range", i, nx)
			}
		}
		if len(l.Next) > 1 && slices.Contains(l.Next, l.ID) {
			return fmt.Errorf("traffic: link %d loops but has other successors", i)
		}
		if l.Signal != NoSignal {
			if l.Signal < 0 || int(l.Signal) >= len(n.Signals) {
				return fmt.Errorf("traffic: link %d signal %d out of range", i, l.Signal)
			}
		}
	}
	for i, s := range n.Signals {
		if s.ID != SignalID(i) {
			return fmt.Errorf("traffic: signal %d has ID %d", i, s.ID)
		}
		if s.Actuated != nil {
			if err := s.Actuated.validate(); err != nil {
				return fmt.Errorf("traffic: signal %d: %w", i, err)
			}
			if len(s.Phases) == 0 {
				return fmt.Errorf("traffic: actuated signal %d has no phases", i)
			}
			// Clearance is the controller's AllRed, not a phase: every
			// actuated phase must serve someone or the controller would
			// idle a whole min-green on nothing.
			for j, p := range s.Phases {
				if len(p.Green) == 0 {
					return fmt.Errorf("traffic: actuated signal %d phase %d serves no links", i, j)
				}
			}
		} else if s.cycle() <= 0 {
			return fmt.Errorf("traffic: signal %d has empty cycle", i)
		}
	}
	return nil
}

// --- Builders ------------------------------------------------------------

// GridSpec parameterises a Manhattan street grid: Rows x Cols signalized
// intersections joined by two-way streets every BlockM metres.
type GridSpec struct {
	Rows, Cols    int
	BlockM        float64
	Lanes         int
	LaneWidthM    float64
	SpeedLimitMPS float64
	// Green and AllRed set each signal's phase timing: north-south
	// green, clearance, east-west green, clearance.
	Green  time.Duration
	AllRed time.Duration
	// Actuated, when non-nil, switches every intersection to
	// queue-actuated control with these parameters: two phases
	// (north-south, east-west) timed by stop-line occupancy instead of
	// the fixed Green/AllRed cycle.
	Actuated *ActuatedParams
}

// GridNet is a Network built from a GridSpec plus the index needed to
// address it by intersection coordinates.
type GridNet struct {
	*Network
	Spec GridSpec

	// linkFromTo maps a (from node, to node) pair to the directed link.
	linkFromTo map[[2]int]LinkID
}

// nodeIndex flattens (row, col) intersection coordinates.
func (g *GridNet) nodeIndex(row, col int) int { return row*g.Spec.Cols + col }

// NodePoint returns the intersection's plane position.
func (g *GridNet) NodePoint(row, col int) geom.Point {
	return geom.Point{X: float64(col) * g.Spec.BlockM, Y: float64(row) * g.Spec.BlockM}
}

// LinkBetween returns the directed link from intersection (r1,c1) to the
// adjacent intersection (r2,c2), or NoLink when the pair is not adjacent.
func (g *GridNet) LinkBetween(r1, c1, r2, c2 int) (LinkID, bool) {
	id, ok := g.linkFromTo[[2]int{g.nodeIndex(r1, c1), g.nodeIndex(r2, c2)}]
	return id, ok
}

// BlockRect returns the building footprint of the block whose south-west
// intersection is (row, col), inset by marginM of street on each side —
// the obstruction rectangle urban radio scenarios want.
func (g *GridNet) BlockRect(row, col int, marginM float64) geom.Rect {
	sw := g.NodePoint(row, col)
	ne := g.NodePoint(row+1, col+1)
	return geom.Rect{
		MinX: sw.X + marginM, MinY: sw.Y + marginM,
		MaxX: ne.X - marginM, MaxY: ne.Y - marginM,
	}
}

// NewGridNetwork builds the signalized street grid. Every street is two
// directed links (one per direction); every intersection that joins both
// axes gets a fixed-cycle signal alternating north-south and east-west
// green. Turning is allowed onto every departing street except the exact
// U-turn (kept only where it is the sole option).
func NewGridNetwork(spec GridSpec) (*GridNet, error) {
	if spec.Rows < 1 || spec.Cols < 1 || spec.Rows*spec.Cols < 2 {
		return nil, fmt.Errorf("traffic: grid %dx%d too small", spec.Rows, spec.Cols)
	}
	if spec.BlockM <= 0 {
		return nil, fmt.Errorf("traffic: block size %v", spec.BlockM)
	}
	g := &GridNet{
		Network:    &Network{},
		Spec:       spec,
		linkFromTo: make(map[[2]int]LinkID),
	}
	addLink := func(fromR, fromC, toR, toC int) {
		id := LinkID(len(g.Links))
		a, b := g.NodePoint(fromR, fromC), g.NodePoint(toR, toC)
		g.Links = append(g.Links, &Link{
			ID:            id,
			Centre:        geom.MustPolyline(a, b),
			Lanes:         spec.Lanes,
			LaneWidthM:    spec.LaneWidthM,
			SpeedLimitMPS: spec.SpeedLimitMPS,
			Signal:        NoSignal,
		})
		g.linkFromTo[[2]int{g.nodeIndex(fromR, fromC), g.nodeIndex(toR, toC)}] = id
	}
	// Horizontal streets: both directions of every row segment, then
	// vertical streets — a fixed construction order keeps link IDs
	// stable.
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c+1 < spec.Cols; c++ {
			addLink(r, c, r, c+1)
			addLink(r, c+1, r, c)
		}
	}
	for c := 0; c < spec.Cols; c++ {
		for r := 0; r+1 < spec.Rows; r++ {
			addLink(r, c, r+1, c)
			addLink(r+1, c, r, c)
		}
	}

	// Successor links: everything departing the downstream node except
	// the reverse direction; fall back to the U-turn on dead ends.
	type nodeRC struct{ r, c int }
	nodeOf := make(map[int]nodeRC)
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			nodeOf[g.nodeIndex(r, c)] = nodeRC{r, c}
		}
	}
	departing := make(map[int][]LinkID)
	arriving := make(map[int][]LinkID)
	linkEnds := make(map[LinkID][2]int) // from node, to node
	for pair, id := range g.linkFromTo {
		departing[pair[0]] = append(departing[pair[0]], id)
		arriving[pair[1]] = append(arriving[pair[1]], id)
		linkEnds[id] = pair
	}
	// Map iteration above only fills lookup tables; successor lists are
	// built below by ascending link ID so construction is deterministic.
	for id := range g.Links {
		l := g.Links[id]
		ends := linkEnds[l.ID]
		reverse, hasReverse := g.linkFromTo[[2]int{ends[1], ends[0]}]
		var next []LinkID
		for candidate := range g.Links {
			cid := LinkID(candidate)
			cEnds, ok := linkEnds[cid]
			if !ok || cEnds[0] != ends[1] {
				continue
			}
			if hasReverse && cid == reverse {
				continue
			}
			next = append(next, cid)
		}
		if len(next) == 0 && hasReverse {
			next = []LinkID{reverse}
		}
		l.Next = next
	}

	// Signals at every intersection fed by both axes.
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			node := g.nodeIndex(r, c)
			var ns, ew []LinkID
			for _, id := range arriving[node] {
				ends := linkEnds[id]
				from := nodeOf[ends[0]]
				if from.c == c {
					ns = append(ns, id)
				} else {
					ew = append(ew, id)
				}
			}
			if len(ns) == 0 || len(ew) == 0 {
				continue
			}
			sortLinkIDs(ns)
			sortLinkIDs(ew)
			sid := SignalID(len(g.Signals))
			sig := &Signal{
				ID: sid,
				Phases: []SignalPhase{
					{Dur: spec.Green, Green: ns},
					{Dur: spec.AllRed},
					{Dur: spec.Green, Green: ew},
					{Dur: spec.AllRed},
				},
			}
			if spec.Actuated != nil {
				// Actuated control inserts its own clearance; the phase
				// list is just the green sets. Each signal owns a copy of
				// the params so the network stays self-contained.
				ap := *spec.Actuated
				sig.Phases = []SignalPhase{
					{Dur: ap.MaxGreen, Green: ns},
					{Dur: ap.MaxGreen, Green: ew},
				}
				sig.Actuated = &ap
			}
			g.Signals = append(g.Signals, sig)
			for _, id := range arriving[node] {
				g.Links[id].Signal = sid
			}
		}
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func sortLinkIDs(ids []LinkID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// RingSpec parameterises a closed circular road.
type RingSpec struct {
	CircumferenceM float64
	Lanes          int
	LaneWidthM     float64
	SpeedLimitMPS  float64
}

// NewRingRoad builds a single-link closed loop approximating a circle of
// the given circumference — the classic stop-and-go wave testbed.
func NewRingRoad(spec RingSpec) (*Network, error) {
	if spec.CircumferenceM <= 0 {
		return nil, fmt.Errorf("traffic: ring circumference %v", spec.CircumferenceM)
	}
	const segments = 48
	// Size the polygon so its perimeter (the link length vehicles see)
	// equals the requested circumference exactly.
	radius := spec.CircumferenceM / (2 * float64(segments) * math.Sin(math.Pi/segments))
	pts := make([]geom.Point, segments+1)
	for i := 0; i <= segments; i++ {
		theta := 2 * math.Pi * float64(i) / segments
		pts[i] = geom.Point{X: radius * math.Cos(theta), Y: radius * math.Sin(theta)}
	}
	n := &Network{
		Links: []*Link{{
			ID:            0,
			Centre:        geom.MustPolyline(pts...),
			Lanes:         spec.Lanes,
			LaneWidthM:    spec.LaneWidthM,
			SpeedLimitMPS: spec.SpeedLimitMPS,
			Next:          []LinkID{0},
			Signal:        NoSignal,
		}},
	}
	if err := n.validate(); err != nil {
		return nil, err
	}
	return n, nil
}
