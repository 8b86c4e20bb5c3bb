// Package scenario assembles complete experiments: the paper's Figure-2
// urban testbed (one AP, a three-car platoon, 30 rounds), the highway
// drive-thru motivation scenario, and the multi-lap file-download
// extension. Each scenario builds the full stack — engine, channel,
// medium, mobility, access point, C-ARQ nodes, trace collector — runs it,
// and returns the round traces for the analysis layer.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// APID is the station ID used for access points (the first AP; additional
// APs count up from it).
const APID packet.NodeID = 100

// RelayID is the station ID of the first relay vehicle in scenarios with
// non-platoon traffic (additional relays count up from it).
const RelayID packet.NodeID = 50

// CarIDs returns the platoon node IDs for an n-car platoon, in platoon
// order (front first). Every scenario numbers its platoon this way.
func CarIDs(n int) []packet.NodeID {
	ids := make([]packet.NodeID, n)
	for i := range ids {
		ids[i] = packet.NodeID(i + 1)
	}
	return ids
}

// Node is a protocol instance attached to a car: it consumes frames from
// the MAC and starts its own timers. *carq.Node satisfies it; package
// baseline provides alternative implementations (epidemic flooding).
type Node interface {
	mac.Handler
	Start()
}

// NodeFactory builds a car's protocol instance. The observer is the run's
// trace collector; factories should pass it protocol events when their
// node supports it.
type NodeFactory func(id packet.NodeID, engine *sim.Engine, port *mac.Station, seed int64, obs carq.Observer) (Node, error)

// CarSpec binds one vehicle's identity, movement and protocol settings.
// When Factory is nil the car runs the Cooperative-ARQ node configured by
// Carq; otherwise Factory builds the protocol and Carq is ignored.
type CarSpec struct {
	ID       packet.NodeID
	Mobility mobility.Model
	Carq     carq.Config
	Factory  NodeFactory
}

// BeaconSpec binds one beacon-only background vehicle: a station that
// sends a HELLO every Period (jittered) from StartAt on and ignores what
// it hears. Beacons load the channel and the medium but are not part of
// the round's trace scope (see Run).
type BeaconSpec struct {
	ID       packet.NodeID
	Mobility mobility.Model
	Period   time.Duration
	// StartAt delays the first beacon: demand-injected vehicles stay
	// radio-silent until their arrival instant (zero for always-present
	// vehicles).
	StartAt time.Duration
}

// APSpec places one access point.
type APSpec struct {
	Position geom.Point
	Config   ap.Config
	// AdaptiveMaxRepeats, when positive, installs the cooperator-
	// adaptive retransmission policy with this ceiling (the AP listens
	// to HELLOs and repeats more for poorly-connected cars).
	AdaptiveMaxRepeats int
}

// Setup is a fully specified simulation run.
type Setup struct {
	Seed     int64
	Channel  radio.Config
	MAC      mac.Config
	APs      []APSpec
	Cars     []CarSpec
	Beacons  []BeaconSpec
	Duration time.Duration
	// Hook, if non-nil, receives the constructed engine and car nodes
	// before the run starts, for callers that want to schedule extra probes.
	Hook func(engine *sim.Engine, nodes map[packet.NodeID]Node)
}

// Result is one simulation run's output: the trace and the cars' final
// protocol instances (beacons keep no state worth returning).
type Result struct {
	Trace *trace.Collector
	Nodes map[packet.NodeID]Node
}

// CarqNode returns the car's node as a *carq.Node, or nil when the car
// ran a different protocol.
func (r *Result) CarqNode(id packet.NodeID) *carq.Node {
	n, _ := r.Nodes[id].(*carq.Node)
	return n
}

// mediumEnumeration is how every medium Run builds enumerates receivers:
// mac.EnumerateAuto, except while the scan-vs-index equivalence test
// forces one path. Every choice produces the same round.
var mediumEnumeration mac.Enumeration

// Run executes one simulation round and returns its trace and final node
// states. The trace is scoped to the tracked stations — the APs and the
// cars: it records a transmission whose source is tracked and a
// reception or drop whose receiver is tracked. Beacons are registered
// after the cars and stay out of the trace; the medium still counts
// their events (mac.Stats).
func Run(s Setup) (*Result, error) {
	if len(s.APs) == 0 {
		return nil, fmt.Errorf("scenario: no access points")
	}
	if len(s.Cars) == 0 {
		return nil, fmt.Errorf("scenario: no cars")
	}
	if s.Duration <= 0 {
		return nil, fmt.Errorf("scenario: non-positive duration %v", s.Duration)
	}
	engine := sim.New()
	col := &trace.Collector{}
	s.Channel.Seed = s.Seed
	channel, err := radio.NewChannel(s.Channel)
	if err != nil {
		return nil, fmt.Errorf("scenario: channel: %w", err)
	}
	medium := mac.NewMedium(engine, channel, col)
	medium.SetEnumeration(mediumEnumeration)

	for i, spec := range s.APs {
		apStation, err := medium.AddStation(spec.Config.ID, staticPos(spec.Position), nil, s.MAC)
		if err != nil {
			return nil, fmt.Errorf("scenario: AP %d: %w", i, err)
		}
		apCfg := spec.Config
		if spec.AdaptiveMaxRepeats > 0 {
			policy := ap.NewAdaptiveRepeats(engine, spec.AdaptiveMaxRepeats, 0)
			apStation.SetHandler(policy)
			apCfg.RepeatPolicy = policy
		}
		if _, err := ap.New(engine, apStation, apCfg); err != nil {
			return nil, fmt.Errorf("scenario: AP %d: %w", i, err)
		}
	}

	nodes := make(map[packet.NodeID]Node, len(s.Cars))
	for _, car := range s.Cars {
		car := car
		st, err := medium.AddStation(car.ID, car.Mobility.Position, nil, s.MAC)
		if err != nil {
			return nil, fmt.Errorf("scenario: car %v: %w", car.ID, err)
		}
		var node Node
		if car.Factory != nil {
			node, err = car.Factory(car.ID, engine, st, s.Seed, col)
		} else {
			node, err = carq.NewNode(car.Carq, carq.Deps{
				Ctx:      engine,
				Port:     st,
				RNG:      sim.Stream(s.Seed, fmt.Sprintf("carq-%v", car.ID)),
				Observer: col,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: car %v: %w", car.ID, err)
		}
		st.SetHandler(node)
		node.Start()
		nodes[car.ID] = node
	}
	for _, b := range s.Beacons {
		st, err := medium.AddStation(b.ID, b.Mobility.Position, nil, s.MAC)
		if err != nil {
			return nil, fmt.Errorf("scenario: beacon %v: %w", b.ID, err)
		}
		// Untraced with no handler, a beacon station is deaf: the medium
		// only carrier-senses for it.
		st.Untrace()
		node := &beaconNode{BeaconSpec: b, port: st,
			rng: sim.Stream(s.Seed, fmt.Sprintf("beacon-%v", b.ID))}
		node.timer = engine.NewTimer(node.beacon)
		node.start()
	}

	if s.Hook != nil {
		s.Hook(engine, nodes)
	}
	if err := engine.RunUntil(s.Duration); err != nil {
		return nil, fmt.Errorf("scenario: run: %w", err)
	}
	// One predictable branch per round: the engine and medium count with
	// plain fields while the simulation runs; only the flush into the
	// shared registry is gated (and skipped entirely by default).
	if metrics.Enabled() {
		flushRunStats(engine, medium)
	}
	return &Result{Trace: col, Nodes: nodes}, nil
}

// beaconNode is the background vehicles' protocol: periodic HELLO
// beacons with per-node deterministic jitter, no reaction to received
// frames. It models the paper's non-cooperating traffic that still loads
// the channel — and, at scale, the medium.
type beaconNode struct {
	BeaconSpec
	timer *sim.Timer // fires the next beacon
	port  *mac.Station
	rng   *rand.Rand
}

// start arms the first beacon at a uniformly jittered offset past
// StartAt so the population desynchronises.
func (n *beaconNode) start() {
	first := n.StartAt + time.Duration(n.rng.Int63n(int64(n.Period)))
	n.timer.Reset(first)
}

func (n *beaconNode) beacon() {
	// Queue-full errors just skip a beacon; the channel is saturated
	// anyway when that happens.
	_ = n.port.Send(packet.NewHello(n.ID, nil))
	jitter := time.Duration(n.rng.Int63n(int64(n.Period / 4)))
	n.timer.Reset(n.Period + jitter - n.Period/8)
}

func staticPos(p geom.Point) mac.PositionFunc {
	return func(time.Duration) geom.Point { return p }
}
