// Package trace records what happens on the simulated network — the
// tracked stations' transmissions, receptions and drops, and every
// protocol phase change and cooperative recovery — mirroring the paper's
// methodology of capturing the platoon's and the AP's traffic in monitor
// mode and post-processing it offline. A round tracks its APs and cars;
// beacon-only background vehicles load the channel but stay out of the
// record (see mac.Station.Untrace). Collectors plug into both
// the MAC (mac.Tracer) and the protocol (carq.Observer), can be exported
// and re-imported as JSON Lines (the interchange format) or in a compact,
// canonical delta-varint binary encoding (the stores' format; see
// AppendBinary), and expose the set/series queries the analysis layer is
// built on.
package trace

import (
	"slices"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
)

// TxRecord is one frame put on the air.
type TxRecord struct {
	At    time.Duration `json:"at"`
	Src   packet.NodeID `json:"src"`
	Type  packet.Type   `json:"type"`
	Dst   packet.NodeID `json:"dst"`
	Flow  packet.NodeID `json:"flow"`
	Seq   uint32        `json:"seq"`
	Bytes int           `json:"bytes"`
}

// RxRecord is one successful frame reception at one station.
type RxRecord struct {
	At         time.Duration `json:"at"`
	Dst        packet.NodeID `json:"dst"` // the receiving station
	Src        packet.NodeID `json:"src"`
	Type       packet.Type   `json:"type"`
	AddrTo     packet.NodeID `json:"addr_to"` // the frame's addressed destination
	Flow       packet.NodeID `json:"flow"`
	Seq        uint32        `json:"seq"`
	RxPowerDBm float64       `json:"rx_dbm"`
	SINRdB     float64       `json:"sinr_db"`
}

// DropRecord is one failed delivery at one station.
type DropRecord struct {
	At     time.Duration  `json:"at"`
	Dst    packet.NodeID  `json:"dst"`
	Src    packet.NodeID  `json:"src"`
	Type   packet.Type    `json:"type"`
	Flow   packet.NodeID  `json:"flow"`
	Seq    uint32         `json:"seq"`
	Reason mac.DropReason `json:"reason"`
}

// PhaseRecord is one protocol phase transition.
type PhaseRecord struct {
	At   time.Duration `json:"at"`
	Node packet.NodeID `json:"node"`
	From carq.Phase    `json:"from"`
	To   carq.Phase    `json:"to"`
}

// RecoveryRecord is one packet recovered through Cooperative ARQ.
type RecoveryRecord struct {
	At   time.Duration `json:"at"`
	Node packet.NodeID `json:"node"`
	Seq  uint32        `json:"seq"`
	From packet.NodeID `json:"from"`
}

// CompleteRecord marks a node draining its missing list.
type CompleteRecord struct {
	At   time.Duration `json:"at"`
	Node packet.NodeID `json:"node"`
}

// VehicleRecord is one microscopic-traffic state sample: where vehicle Veh
// was at time At, expressed in road coordinates (link, lane, arc along the
// link's centreline) plus its speed. It is the serialized form of a
// traffic world (traffic.World.Trace): the traffic store encodes worlds
// through it, and a world's records stand in time-major order, at each
// instant the vehicles sampled then in ID order. Vehicle IDs are
// traffic-simulation indices, not station IDs: most traffic is
// radio-silent background.
type VehicleRecord struct {
	At    time.Duration `json:"at"`
	Veh   int           `json:"veh"`
	Link  int           `json:"link"`
	Lane  int           `json:"lane"`
	Arc   float64       `json:"arc"`
	Speed float64       `json:"v"`
}

// Collector accumulates the tracked stations' events of one simulation
// round: a transmission whose source is tracked, a reception or drop
// whose receiver is tracked, and the protocol's events. It implements
// mac.Tracer and carq.Observer. The zero value is ready to use.
type Collector struct {
	Tx        []TxRecord
	Rx        []RxRecord
	Drops     []DropRecord
	Phases    []PhaseRecord
	Recovered []RecoveryRecord
	Completed []CompleteRecord
	Vehicles  []VehicleRecord
}

var (
	_ mac.Tracer    = (*Collector)(nil)
	_ carq.Observer = (*Collector)(nil)
)

// OnTx implements mac.Tracer.
func (c *Collector) OnTx(src packet.NodeID, f *packet.Frame, start, airtime time.Duration) {
	c.Tx = append(c.Tx, TxRecord{
		At: start, Src: src, Type: f.Type, Dst: f.Dst, Flow: f.Flow,
		Seq: f.Seq, Bytes: f.WireSize(),
	})
}

// OnRx implements mac.Tracer.
func (c *Collector) OnRx(dst packet.NodeID, f *packet.Frame, meta mac.RxMeta) {
	c.Rx = append(c.Rx, RxRecord{
		At: meta.At, Dst: dst, Src: f.Src, Type: f.Type, AddrTo: f.Dst,
		Flow: f.Flow, Seq: f.Seq,
		RxPowerDBm: meta.RxPowerDBm, SINRdB: meta.SINRdB,
	})
}

// OnDrop implements mac.Tracer.
func (c *Collector) OnDrop(dst packet.NodeID, f *packet.Frame, at time.Duration, reason mac.DropReason) {
	c.Drops = append(c.Drops, DropRecord{
		At: at, Dst: dst, Src: f.Src, Type: f.Type, Flow: f.Flow,
		Seq: f.Seq, Reason: reason,
	})
}

// OnPhaseChange implements carq.Observer.
func (c *Collector) OnPhaseChange(id packet.NodeID, from, to carq.Phase, at time.Duration) {
	c.Phases = append(c.Phases, PhaseRecord{At: at, Node: id, From: from, To: to})
}

// OnRecovered implements carq.Observer.
func (c *Collector) OnRecovered(id packet.NodeID, seq uint32, from packet.NodeID, at time.Duration) {
	c.Recovered = append(c.Recovered, RecoveryRecord{At: at, Node: id, Seq: seq, From: from})
}

// OnComplete implements carq.Observer.
func (c *Collector) OnComplete(id packet.NodeID, at time.Duration) {
	c.Completed = append(c.Completed, CompleteRecord{At: at, Node: id})
}

// --- Queries -------------------------------------------------------------

// DataSentSeqs returns the distinct DATA sequence numbers transmitted for
// a flow, ascending.
func (c *Collector) DataSentSeqs(flow packet.NodeID) []uint32 {
	var out []uint32
	for _, r := range c.Tx {
		if r.Type == packet.TypeData && r.Flow == flow {
			out = append(out, r.Seq)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// DirectRxSet returns the sequence numbers of flow-f DATA frames that
// station rx received directly off the air.
func (c *Collector) DirectRxSet(rx, flow packet.NodeID) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, r := range c.Rx {
		if r.Type == packet.TypeData && r.Flow == flow && r.Dst == rx {
			out[r.Seq] = true
		}
	}
	return out
}

// JointRxSet returns the sequence numbers of flow-f DATA frames received
// directly by ANY of the given stations — the paper's "virtual car" joint
// reception.
func (c *Collector) JointRxSet(flow packet.NodeID, stations ...packet.NodeID) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, s := range stations {
		for seq := range c.DirectRxSet(s, flow) {
			out[seq] = true
		}
	}
	return out
}

// RecoveredSet returns the sequence numbers node recovered via C-ARQ
// (protocol-level events).
func (c *Collector) RecoveredSet(node packet.NodeID) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, r := range c.Recovered {
		if r.Node == node {
			out[r.Seq] = true
		}
	}
	return out
}

// HeldSet returns everything node holds of its own flow at the end of the
// round: direct receptions plus cooperative recoveries.
func (c *Collector) HeldSet(node packet.NodeID) map[uint32]bool {
	out := c.DirectRxSet(node, node)
	for seq := range c.RecoveredSet(node) {
		out[seq] = true
	}
	return out
}

// Counts summarises the event volume, for logging.
type Counts struct {
	Tx, Rx, Drops, Phases, Recovered, Completed, Vehicles int
}

// Counts returns the record counts.
func (c *Collector) Counts() Counts {
	return Counts{
		Tx: len(c.Tx), Rx: len(c.Rx), Drops: len(c.Drops),
		Phases: len(c.Phases), Recovered: len(c.Recovered), Completed: len(c.Completed),
		Vehicles: len(c.Vehicles),
	}
}
