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
// AppendBinary). The records are plain slices: package analysis reads
// them directly into the paper's per-sequence statistics.
//
// A round's collector holds its full record — transmissions and
// receptions of every frame type and every drop — which is what a JSONL
// export carries, and it tallies its transmissions as it records them
// (Sends). The result store keeps only the part the studies read,
// analysis.StudyView: the tally instead of the transmissions, the DATA
// receptions and no drops.
package trace

import (
	"slices"
	"sort"
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

// RxRecord is one successful frame reception at one station: who heard
// which frame of which flow, and when. The radio side of a reception
// (power, SINR) and the frame's addressed destination stay in
// mac.RxMeta and the frame, where the protocol reads them; no study
// does.
type RxRecord struct {
	At   time.Duration `json:"at"`
	Dst  packet.NodeID `json:"dst"` // the receiving station
	Src  packet.NodeID `json:"src"`
	Type packet.Type   `json:"type"`
	Flow packet.NodeID `json:"flow"`
	Seq  uint32        `json:"seq"`
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

// frameTypes is the number of frame types a Sends tallies,
// TypeData..TypeResponse.
const frameTypes = int(packet.TypeResponse - packet.TypeData + 1)

// Sends is a round's transmissions as the studies read them: how many
// frames of each type were sent and their wire bytes, and which distinct
// DATA sequence numbers were sent on each flow. Collector.OnTx keeps it
// as it records; ReadJSONL rebuilds it from the tx lines. The zero value
// is an empty tally.
type Sends struct {
	// Frames holds the tally of frame type TypeData+i at index i.
	Frames [frameTypes]FrameTally
	// Flows holds each flow a DATA frame was sent on, by ascending Flow.
	Flows []FlowSeqs
}

// FrameTally counts the frames of one type and their wire bytes.
type FrameTally struct {
	Count, Bytes int
}

// FlowSeqs holds the distinct DATA sequence numbers sent on one flow as
// runs: ascending, and maximal, so no two runs overlap or adjoin.
type FlowSeqs struct {
	Flow packet.NodeID
	Runs []SeqRun
}

// SeqRun is the sequence numbers First..Last, both included.
type SeqRun struct {
	First, Last uint32
}

// Frame returns the tally of frame type t, zero for a type the MAC
// never sends.
func (s *Sends) Frame(t packet.Type) FrameTally {
	if t < packet.TypeData || t > packet.TypeResponse {
		return FrameTally{}
	}
	return s.Frames[t-packet.TypeData]
}

// DataRuns returns the runs of DATA sequence numbers sent on flow, nil
// if none was.
func (s *Sends) DataRuns(flow packet.NodeID) []SeqRun {
	if i, ok := s.flow(flow); ok {
		return s.Flows[i].Runs
	}
	return nil
}

// flow returns the index of flow in Flows, or where to insert it. It
// runs once per DATA transmission: written out, the search makes OnTx
// about a quarter cheaper than slices.BinarySearchFunc with a closure.
func (s *Sends) flow(flow packet.NodeID) (int, bool) {
	lo, hi := 0, len(s.Flows)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.Flows[m].Flow < flow {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.Flows) && s.Flows[lo].Flow == flow
}

// add tallies one transmission.
func (s *Sends) add(t packet.Type, flow packet.NodeID, seq uint32, bytes int) {
	if t < packet.TypeData || t > packet.TypeResponse {
		return
	}
	f := &s.Frames[t-packet.TypeData]
	f.Count++
	f.Bytes += bytes
	if t == packet.TypeData {
		s.addData(flow, seq)
	}
}

// addData adds seq to flow's runs. A carousel sends each flow's
// sequence numbers in ascending cycles, so seq almost always lies in or
// extends the flow's last run, which is checked first.
func (s *Sends) addData(flow packet.NodeID, seq uint32) {
	i, ok := s.flow(flow)
	if !ok {
		s.Flows = slices.Insert(s.Flows, i, FlowSeqs{Flow: flow})
	}
	f := &s.Flows[i]
	if n := len(f.Runs); n > 0 && seq >= f.Runs[n-1].First {
		last := &f.Runs[n-1]
		switch {
		case seq <= last.Last:
			return
		case seq == last.Last+1:
			last.Last = seq
			return
		}
	}
	f.Runs = addSeq(f.Runs, seq)
}

// addSeq adds seq to a flow's runs wherever it falls: inside a run,
// next to one or between two, or apart from all.
func addSeq(runs []SeqRun, seq uint32) []SeqRun {
	// runs[i] is the first run that ends at or after seq; seq lies
	// after runs[i-1].
	n := len(runs)
	i := sort.Search(n, func(k int) bool { return runs[k].Last >= seq })
	if i < n && runs[i].First <= seq {
		return runs
	}
	joinPrev := i > 0 && runs[i-1].Last+1 == seq
	joinNext := i < n && seq+1 == runs[i].First
	switch {
	case joinPrev && joinNext:
		runs[i-1].Last = runs[i].Last
		return slices.Delete(runs, i, i+1)
	case joinPrev:
		runs[i-1].Last = seq
	case joinNext:
		runs[i].First = seq
	default:
		return slices.Insert(runs, i, SeqRun{seq, seq})
	}
	return runs
}

// Collector accumulates the tracked stations' events of one simulation
// round: a transmission whose source is tracked, a reception or drop
// whose receiver is tracked, and the protocol's events. It implements
// mac.Tracer and carq.Observer. The zero value is ready to use.
//
// Sent tallies the transmissions in Tx; the studies read it, not Tx,
// so a round keeps its study results once Tx is gone (a stored round
// has none).
type Collector struct {
	Tx        []TxRecord
	Sent      Sends
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
	r := TxRecord{
		At: start, Src: src, Type: f.Type, Dst: f.Dst, Flow: f.Flow,
		Seq: f.Seq, Bytes: f.WireSize(),
	}
	c.Tx = append(c.Tx, r)
	c.Sent.add(r.Type, r.Flow, r.Seq, r.Bytes)
}

// OnRx implements mac.Tracer.
func (c *Collector) OnRx(dst packet.NodeID, f *packet.Frame, meta mac.RxMeta) {
	c.Rx = append(c.Rx, RxRecord{
		At: meta.At, Dst: dst, Src: f.Src, Type: f.Type, Flow: f.Flow, Seq: f.Seq,
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
// a flow, ascending, as the Sent tally holds them; nil if none was.
func (c *Collector) DataSentSeqs(flow packet.NodeID) []uint32 {
	var out []uint32
	for _, r := range c.Sent.DataRuns(flow) {
		for seq := r.First; ; seq++ {
			out = append(out, seq)
			if seq == r.Last {
				break
			}
		}
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
