package scenario

import (
	"fmt"

	"repro/internal/carq"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Common holds the settings every scenario config embeds and reads the
// same way, so the cross-cutting wiring — arm-forked seeds and the
// per-car protocol switch — lives here once
// instead of once per family.
type Common struct {
	// Cars is the platoon size (the C-ARQ stations).
	Cars int
	// Seed roots all randomness; each round derives its own streams.
	Seed int64
	// Arm names the sweep arm this config belongs to. A non-empty arm
	// forks the round's channel and protocol randomness (sim.ArmSeed), so
	// sweep arms stop sharing one fading/shadowing realization; the
	// mobility/traffic world stays keyed by (Seed, round) alone and
	// remains shared across arms. The harness sets it to the
	// parameter-point label; empty keeps the unforked streams.
	Arm string
	// Coop enables the Cooperative-ARQ protocol; false runs the
	// no-cooperation baseline.
	Coop bool
	// PacketsPerSecond per flow and PayloadBytes size the AP's stream.
	PacketsPerSecond float64
	PayloadBytes     int
}

// Base returns c itself. Promoted through embedding, it gives generic
// code a handle on any config's shared settings.
func (c *Common) Base() *Common { return c }

// carqConfig returns car id's Cooperative-ARQ settings with the
// cooperation switch applied.
func (c Common) carqConfig(id packet.NodeID) carq.Config {
	ccfg := carq.DefaultConfig(id)
	ccfg.CoopEnabled = c.Coop
	return ccfg
}

// platoon returns the C-ARQ car specs of a platoon moving by models,
// front first, numbered as CarIDs numbers them.
func (c Common) platoon(models []mobility.Model) []CarSpec {
	cars := make([]CarSpec, len(models))
	for i, id := range CarIDs(len(models)) {
		cars[i] = CarSpec{ID: id, Mobility: models[i], Carq: c.carqConfig(id)}
	}
	return cars
}

// run executes one round's Setup under the shared wiring, the round seed
// forked by the sweep arm, recording its trace into col.
func (c Common) run(roundSeed int64, col *trace.Collector, s Setup) (map[packet.NodeID]Node, error) {
	s.Seed = sim.ArmSeed(roundSeed, c.Arm)
	return runSetup(s, col)
}

// Round is one round's output: what a work unit computes, stores and
// reloads. Its JSON form, minus the trace, is the stored unit's meta
// section, so a field added here needs a JSON tag and nothing else to be
// stored; a value the config determines is derived, not stored.
type Round struct {
	Protocol *trace.Collector `json:"-"`
	// Vehicles is the round's demand-vehicle count (citydemand).
	Vehicles int `json:"vehicles,omitempty"`
	// TrafficSummary summarises the recorded traffic world behind the
	// round; the zero value for families without a traffic world.
	TrafficSummary
	// Cars is each car's download outcome (download).
	Cars []CarDownload `json:"cars,omitempty"`
}

// Family is a round-based scenario config C with result R: its rounds
// are independent simulations that derive every stream from the root
// seed and the round index alone, so any round runs in isolation or
// concurrently with its siblings and produces the bits a serial run
// would. Every method but Normalized reads a normalized config.
type Family[C, R any] interface {
	// Name is the scenario name the harness records and keys units by.
	Name() string
	// Normalized validates the config and returns it unchanged: a
	// family's defaults live in its DefaultX constructor only.
	Normalized() (C, error)
	// NumRounds is the number of rounds a run executes.
	NumRounds() int
	// Round runs one round, records its trace into col, which must be
	// empty, and returns col as the round's Protocol. The caller picks
	// the recording: a zero Collector records in full, a study collector
	// (trace.NewStudyCollector) as the studies read the round.
	Round(round int, col *trace.Collector) (Round, error)
	// Result assembles the run's result from every round, in order.
	Result(rounds []Round) R
}

// RunRounds normalizes cfg and runs every round serially, recording
// each in full.
func RunRounds[C Family[C, R], R any](cfg C) (R, error) {
	var zero R
	cfg, err := cfg.Normalized()
	if err != nil {
		return zero, err
	}
	rounds := make([]Round, cfg.NumRounds())
	for i := range rounds {
		if rounds[i], err = cfg.Round(i, &trace.Collector{}); err != nil {
			return zero, fmt.Errorf("scenario: %s round %d: %w", cfg.Name(), i, err)
		}
	}
	return cfg.Result(rounds), nil
}

// protocols and summaries gather the per-round outputs for a Result.
func protocols(rounds []Round) []*trace.Collector {
	cols := make([]*trace.Collector, len(rounds))
	for i, r := range rounds {
		cols[i] = r.Protocol
	}
	return cols
}

func summaries(rounds []Round) []TrafficSummary {
	sums := make([]TrafficSummary, len(rounds))
	for i, r := range rounds {
		sums[i] = r.TrafficSummary
	}
	return sums
}
