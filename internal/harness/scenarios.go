package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

// Batch accumulates (scenario, parameter-point, round) work units across
// parameter points so one Go() call can saturate the pool with every
// round of every point at once. Add writes its results when Go returns;
// reading them earlier is a bug.
//
// Every unit resolves against the runner's result store (when one is
// configured) before computing: the unit key is the root seed, the full
// unit identity and a digest of the normalized config plus the code
// digest, so re-running a sweep only computes units whose key changed
// and interrupted sweeps resume where they stopped.
type Batch struct {
	ctx       *Context
	units     []Unit
	finalize  []func()
	cfgErrors []error
}

// Batch starts an empty work-unit batch.
func (c *Context) Batch() *Batch { return &Batch{ctx: c} }

// stamp applies the run to one point's shared scenario settings. The
// root seed is the run's. The sweep arm defaults to the point label, so
// different arms of one sweep draw independent channel/protocol
// randomness — no two arms share a fading realization — while their
// expensive traffic worlds stay shared through the (seed, round)-keyed
// caches.
func (b *Batch) stamp(point string, c *scenario.Common) {
	c.Seed = b.ctx.seed()
	if c.Arm == "" {
		c.Arm = point
	}
}

// Go executes every accumulated unit on the shared pool, then runs the
// finalisers that stitch per-round outputs into the returned results.
// Go always drains the batch, so after an error the batch is empty and
// can be refilled from scratch.
func (b *Batch) Go() error {
	units, finalize, cfgErrors := b.units, b.finalize, b.cfgErrors
	b.units, b.finalize, b.cfgErrors = nil, nil, nil
	for _, err := range cfgErrors {
		if err != nil {
			return err
		}
	}
	if err := b.ctx.RunUnits(units); err != nil {
		return err
	}
	for _, fin := range finalize {
		fin()
	}
	return nil
}

// addStoredRounds adds one unit per round, each resolving through the
// result store: a stored result applies directly, a miss computes,
// applies and persists. cfg is the normalized config whose digest
// (storeutil.Digest) anchors the unit keys; compute runs the
// simulation for one round; apply writes a result — computed or loaded —
// into the round's own slot of caller-owned storage.
func (b *Batch) addStoredRounds(scenarioName, point string, rounds int, cfg any,
	compute func(round int) (*UnitResult, error),
	apply func(round int, res *UnitResult) error) {
	digest := storeutil.Digest(cfg)
	for i := 0; i < rounds; i++ {
		i := i
		key := b.ctx.unitKey(scenarioName, point, i, digest)
		b.units = append(b.units, Unit{
			Scenario: scenarioName,
			Point:    point,
			Round:    i,
			Run: func() error {
				if res := b.ctx.loadUnit(key); res != nil {
					return apply(i, res)
				}
				res, err := compute(i)
				if err != nil {
					return err
				}
				if err := apply(i, res); err != nil {
					return err
				}
				b.ctx.saveUnit(key, res)
				return nil
			},
		})
	}
}

// Add adds every round of one parameter point of a scenario family, and
// writes the point's result to *out when Go returns. The run stamps the
// config (see stamp) before it is normalized and digested; a config that
// fails to normalize fails Go before any unit runs.
//
// A unit records its round into a study collector
// (trace.NewStudyCollector), which keeps the trace as the studies read
// it — the sends' tally, DATA receptions, phases, recoveries and
// completions; no transmission records, control receptions or drops —
// and stores that scenario.Round: its trace as the protocol section and
// its JSON form as the meta section, absent when it is {}. A computed
// round applies as it is stored, so cold and warm runs read the same
// records and the same bytes.
func Add[C scenario.Family[C, R], R any, P interface {
	*C
	Base() *scenario.Common
}](b *Batch, point string, cfg C, out *R) {
	b.stamp(point, P(&cfg).Base())
	cfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return
	}
	rounds := make([]scenario.Round, cfg.NumRounds())
	b.addStoredRounds(cfg.Name(), point, len(rounds), cfg,
		func(round int) (*UnitResult, error) {
			r, err := cfg.Round(round, trace.NewStudyCollector())
			if err != nil {
				return nil, err
			}
			return storedRound(r)
		},
		func(round int, u *UnitResult) (err error) {
			rounds[round], err = loadRound(u)
			return err
		})
	b.finalize = append(b.finalize, func() { *out = cfg.Result(rounds) })
}

// storedRound returns the stored form of r, a round recorded into a
// study collector: its trace as it was recorded, and its meta.
// encoding/json writes a float as the shortest text that parses back to
// the same bits, so every field reloads bit for bit.
func storedRound(r scenario.Round) (*UnitResult, error) {
	meta, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("harness: unit meta: %w", err)
	}
	res := &UnitResult{Protocol: r.Protocol}
	if string(meta) != "{}" {
		res.Meta = meta
	}
	return res, nil
}

// loadRound decodes a stored round; an absent meta section is a round
// that carries only its trace.
func loadRound(u *UnitResult) (scenario.Round, error) {
	r := scenario.Round{Protocol: u.Protocol}
	if len(u.Meta) > 0 {
		if err := json.Unmarshal(u.Meta, &r); err != nil {
			return r, fmt.Errorf("harness: unit meta: %w", err)
		}
	}
	return r, nil
}
