// Package ap implements the roadside access point (Infostation) of the
// paper's scenario: a fixed station that continually transmits numbered
// DATA packets round-robin to each vehicle flow, with no link-layer
// retransmissions (the C-ARQ design spends coverage time on new data
// only). An optional repeat mode implements the AP-side retransmission
// baseline used in the ablation study.
package ap

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Config parameterises an access point.
type Config struct {
	// ID is the AP's station ID.
	ID packet.NodeID
	// Flows lists the destination vehicles; the AP maintains an
	// independent numbered packet stream for each.
	Flows []packet.NodeID
	// PacketsPerSecond is the per-flow transmission rate (the paper used
	// 5 packets/s per car).
	PacketsPerSecond float64
	// PayloadBytes is the DATA payload size (the paper used 1000 B).
	PayloadBytes int
	// Start and Stop bound the transmission interval. Stop <= Start
	// means "transmit until the simulation ends".
	Start, Stop time.Duration
	// Repeats transmits every packet this many times in total (1 = no
	// retransmissions, the paper's configuration). Higher values trade
	// new-data rate for per-packet reliability — the AP-ARQ baseline.
	Repeats int
	// FirstSeq is the sequence number of the first packet of every flow
	// (default 1).
	FirstSeq uint32
	// CycleLength, when positive, makes each flow's numbering wrap back
	// to FirstSeq after CycleLength packets — an Infostation serving a
	// fixed file of CycleLength blocks over and over, the substrate of
	// the file-download experiment.
	CycleLength uint32
	// RepeatPolicy, when non-nil, decides the per-packet repeat count at
	// transmission time and overrides Repeats. Use an *AdaptiveRepeats
	// (installed as the AP station's handler) for the
	// cooperator-adaptive retransmission scheme.
	RepeatPolicy RepeatPolicy
}

func (c Config) validate() error {
	if len(c.Flows) == 0 {
		return fmt.Errorf("ap: no flows configured")
	}
	if c.PacketsPerSecond <= 0 {
		return fmt.Errorf("ap: non-positive rate %v", c.PacketsPerSecond)
	}
	if c.PayloadBytes < 0 || c.PayloadBytes > packet.MaxPayload {
		return fmt.Errorf("ap: payload %d out of range [0, %d]", c.PayloadBytes, packet.MaxPayload)
	}
	if c.Repeats < 1 {
		return fmt.Errorf("ap: repeats %d < 1", c.Repeats)
	}
	for i, flow := range c.Flows {
		if slices.Contains(c.Flows[:i], flow) {
			return fmt.Errorf("ap: flow %v listed twice", flow)
		}
	}
	return nil
}

// AP drives numbered per-flow packet streams through a MAC station.
type AP struct {
	cfg     Config
	ctx     *sim.Engine
	station *mac.Station
	payload []byte
}

// New validates cfg and attaches the AP behaviour to the given station.
// The caller schedules nothing: the AP registers its own timers on ctx.
func New(ctx *sim.Engine, station *mac.Station, cfg Config) (*AP, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if station == nil {
		return nil, fmt.Errorf("ap: nil station")
	}
	if cfg.FirstSeq == 0 {
		cfg.FirstSeq = 1
	}
	a := &AP{
		cfg:     cfg,
		ctx:     ctx,
		station: station,
		payload: make([]byte, cfg.PayloadBytes),
	}
	// Stagger flows within one inter-packet period so the AP's own
	// frames never contend with each other at exactly the same instant.
	// Each flow ticks through one pooled-event chain: after these initial
	// schedules the AP's steady 5-15 frames/s cost no timer allocations.
	period := time.Duration(float64(time.Second) / cfg.PacketsPerSecond)
	for i, flow := range cfg.Flows {
		offset := period * time.Duration(i) / time.Duration(len(cfg.Flows))
		start := cfg.Start + offset
		delay := start - ctx.Now()
		if delay < 0 {
			delay = 0
		}
		ctx.ScheduleCall(delay, flowTick, &apFlow{ap: a, flow: flow, period: period, next: cfg.FirstSeq})
	}
	return a, nil
}

// apFlow is one flow's tick-chain state, threaded through pooled events.
type apFlow struct {
	ap     *AP
	flow   packet.NodeID
	period time.Duration
	next   uint32 // the sequence number of the flow's next packet
}

// flowTick is the shared pooled-event callback driving every flow.
func flowTick(arg any) {
	fl := arg.(*apFlow)
	fl.ap.tick(fl)
}

func (a *AP) tick(fl *apFlow) {
	flow := fl.flow
	now := a.ctx.Now()
	if a.cfg.Stop > a.cfg.Start && now >= a.cfg.Stop {
		return
	}
	seq := fl.next
	fl.next++
	// Offsets from FirstSeq, so a cycle ending at math.MaxUint32 wraps
	// back to FirstSeq instead of comparing against an overflowed end.
	if a.cfg.CycleLength > 0 && fl.next-a.cfg.FirstSeq >= a.cfg.CycleLength {
		fl.next = a.cfg.FirstSeq
	}
	repeats := a.cfg.Repeats
	if a.cfg.RepeatPolicy != nil {
		repeats = a.cfg.RepeatPolicy.Repeats(now)
		if repeats < 1 {
			repeats = 1
		}
	}
	for r := 0; r < repeats; r++ {
		// Queue-full errors are dropped silently: an overloaded AP
		// losing generated packets is part of the modelled system, and
		// the trace records only frames that reached the air.
		_ = a.station.Send(packet.NewData(a.cfg.ID, flow, seq, a.payload))
	}
	a.ctx.ScheduleCall(fl.period, flowTick, fl)
}
