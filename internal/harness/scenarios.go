package harness

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/scenario"
)

// Batch accumulates (scenario, parameter-point, round) work units across
// parameter points so one Go() call can saturate the pool with every
// round of every point at once. Add and AddDownload write their results
// when Go returns; reading them earlier is a bug.
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
// caches. The run's channel mode (-fast-channel) switches the fast mode
// on; a config that already requested it keeps it. Fast mode changes
// results — it is statistically equivalent, not byte-identical — which
// is why stamping precedes the config digest: a stored exact-mode unit
// must never be served to a fast-mode sweep, or vice versa.
func (b *Batch) stamp(point string, c *scenario.Common) {
	c.Seed = b.ctx.Seed()
	if c.Arm == "" {
		c.Arm = point
	}
	if b.ctx.FastChannel() {
		c.FastChannel = true
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

// roundMeta is the scenario-agnostic sidecar of one stored round,
// written only when it carries a value: the round length, the
// demand-vehicle count and the round's traffic summary. encoding/json
// writes a float as the shortest text that parses back to the same
// bits, so the summary reloads bit for bit.
type roundMeta struct {
	DurationNS   int64   `json:"duration_ns,omitempty"`
	Vehicles     int     `json:"vehicles,omitempty"`
	MeanSpeedMPS float64 `json:"mean_speed_mps,omitempty"`
	CrawlShare   float64 `json:"crawl_share,omitempty"`
	Samples      int     `json:"samples,omitempty"`
}

// downloadMeta is the stored form of a DownloadResult minus its trace
// and config.
type downloadMeta struct {
	Cars      []scenario.CarDownload `json:"cars"`
	LapTimeNS int64                  `json:"lap_time_ns"`
}

func marshalMeta(v any) (json.RawMessage, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("harness: unit meta: %w", err)
	}
	return data, nil
}

// addStoredRounds adds one unit per round, each resolving through the
// result store: a stored result applies directly, a miss computes,
// applies and persists. cfg is the normalized config whose digest
// (scenario.ConfigDigest) anchors the unit keys; compute runs the
// simulation for one round; apply writes a result — computed or loaded —
// into the round's own slot of caller-owned storage.
func (b *Batch) addStoredRounds(scenarioName, point string, rounds int, cfg any,
	compute func(round int) (*UnitResult, error),
	apply func(round int, res *UnitResult) error) {
	digest := scenario.ConfigDigest(cfg)
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

// unmarshalRoundMeta tolerates an absent meta section (zero value) so
// stores written by leaner scenarios stay loadable.
func unmarshalRoundMeta(res *UnitResult) (roundMeta, error) {
	var m roundMeta
	if len(res.Meta) == 0 {
		return m, nil
	}
	if err := json.Unmarshal(res.Meta, &m); err != nil {
		return m, fmt.Errorf("harness: unit meta: %w", err)
	}
	return m, nil
}

// Add adds every round of one parameter point of a round-based scenario
// family, and writes the point's result to *out when Go returns. The run
// stamps the config (see stamp) before it is normalized and digested; a
// config that fails to normalize fails Go before any unit runs.
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
			r, err := cfg.Round(round)
			if err != nil {
				return nil, err
			}
			res := &UnitResult{Protocol: r.Protocol}
			m := roundMeta{
				DurationNS: int64(r.Duration), Vehicles: r.Vehicles,
				MeanSpeedMPS: r.Traffic.MeanSpeedMPS, CrawlShare: r.Traffic.CrawlShare, Samples: r.Traffic.Samples,
			}
			if m != (roundMeta{}) {
				if res.Meta, err = marshalMeta(m); err != nil {
					return nil, err
				}
			}
			return res, nil
		},
		func(round int, u *UnitResult) error {
			m, err := unmarshalRoundMeta(u)
			if err != nil {
				return err
			}
			rounds[round] = scenario.Round{
				Protocol: u.Protocol,
				Traffic: scenario.TrafficSummary{
					MeanSpeedMPS: m.MeanSpeedMPS, CrawlShare: m.CrawlShare, Samples: m.Samples,
				},
				Duration: time.Duration(m.DurationNS),
				Vehicles: m.Vehicles,
			}
			return nil
		})
	b.finalize = append(b.finalize, func() { *out = cfg.Result(rounds) })
}

// AddDownload adds one multi-lap file-download point as a single unit
// (the download scenario is one continuous simulation, not rounds), and
// writes its result to *out when Go returns. The stored form carries the
// per-car summaries and lap time in the meta section and the trace as
// the protocol section; the config is the normalized one the unit key
// digests.
func AddDownload(b *Batch, point string, cfg scenario.DownloadConfig, out **scenario.DownloadResult) {
	b.stamp(point, &cfg.Common)
	cfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return
	}
	b.addStoredRounds("download", point, 1, cfg,
		func(int) (*UnitResult, error) {
			r, err := scenario.RunDownload(cfg)
			if err != nil {
				return nil, err
			}
			meta, err := marshalMeta(downloadMeta{Cars: r.Cars, LapTimeNS: int64(r.LapTime)})
			if err != nil {
				return nil, err
			}
			return &UnitResult{Meta: meta, Protocol: r.Trace}, nil
		},
		func(_ int, u *UnitResult) error {
			var m downloadMeta
			if err := json.Unmarshal(u.Meta, &m); err != nil {
				return fmt.Errorf("harness: download meta: %w", err)
			}
			*out = &scenario.DownloadResult{
				Config:  cfg,
				Cars:    m.Cars,
				Trace:   u.Protocol,
				LapTime: time.Duration(m.LapTimeNS),
			}
			return nil
		})
}
