package harness

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Batch accumulates (scenario, parameter-point, round) work units across
// parameter points so one Go() call can saturate the pool with every
// round of every point at once. Results returned by the AddX methods are
// filled in when Go returns; reading them earlier is a bug.
//
// Every method keys the config's sweep arm (scenario's Arm field) by the
// parameter-point label unless the study set one explicitly, so different
// arms of one sweep draw independent channel/protocol randomness — no two
// arms share a fading realization — while their expensive traffic worlds
// stay shared through the (seed, round)-keyed caches.
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

// applyChannelMode applies the run's channel mode (-fast-channel) to one
// unit's scenario config; a config that already requested the fast mode
// keeps it. This changes results — fast mode is statistically
// equivalent, not byte-identical — which is exactly why it must run
// before the config digest is taken: a stored exact-mode unit must never
// be served to a fast-mode sweep, or vice versa.
func (b *Batch) applyChannelMode(fast *bool) {
	if b.ctx.FastChannel() {
		*fast = true
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

// roundMeta is the scenario-agnostic sidecar of one stored round.
type roundMeta struct {
	DurationNS int64 `json:"duration_ns,omitempty"`
	Vehicles   int   `json:"vehicles,omitempty"`
}

// downloadMeta is the stored form of a DownloadResult minus its trace.
type downloadMeta struct {
	Config    scenario.DownloadConfig `json:"config"`
	Cars      []scenario.CarDownload  `json:"cars"`
	LapTimeNS int64                   `json:"lap_time_ns"`
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

// Testbed adds every round of one urban-testbed parameter point. The
// returned result is filled when Go returns.
func (b *Batch) Testbed(point string, cfg scenario.TestbedConfig) *scenario.TestbedResult {
	ncfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return &scenario.TestbedResult{}
	}
	if ncfg.Arm == "" {
		ncfg.Arm = point
	}
	b.applyChannelMode(&ncfg.FastChannel)
	// The pool owns concurrency; a nested parallel loop would only fight
	// it for cores.
	ncfg.Parallel = false
	res := &scenario.TestbedResult{
		Config: ncfg,
		CarIDs: scenario.CarIDs(ncfg.Cars),
		Rounds: make([]*trace.Collector, ncfg.Rounds),
	}
	durs := make([]time.Duration, ncfg.Rounds)
	b.ctx.RecycleTraces(res.Rounds)
	b.addStoredRounds("testbed", point, ncfg.Rounds, ncfg,
		func(round int) (*UnitResult, error) {
			col, dur, err := scenario.TestbedRound(ncfg, round)
			if err != nil {
				return nil, err
			}
			meta, err := marshalMeta(roundMeta{DurationNS: int64(dur)})
			if err != nil {
				return nil, err
			}
			return &UnitResult{Meta: meta, Protocol: col}, nil
		},
		func(round int, u *UnitResult) error {
			m, err := unmarshalRoundMeta(u)
			if err != nil {
				return err
			}
			res.Rounds[round], durs[round] = u.Protocol, time.Duration(m.DurationNS)
			return nil
		})
	b.finalize = append(b.finalize, func() { res.RoundDuration = durs[0] })
	return res
}

// Highway adds every round of one drive-thru parameter point.
func (b *Batch) Highway(point string, cfg scenario.HighwayConfig) *scenario.HighwayResult {
	ncfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return &scenario.HighwayResult{}
	}
	if ncfg.Arm == "" {
		ncfg.Arm = point
	}
	b.applyChannelMode(&ncfg.FastChannel)
	res := &scenario.HighwayResult{
		Config: ncfg,
		CarIDs: scenario.CarIDs(ncfg.Cars),
		Rounds: make([]*trace.Collector, ncfg.Rounds),
	}
	b.ctx.RecycleTraces(res.Rounds)
	b.addStoredRounds("highway", point, ncfg.Rounds, ncfg,
		func(round int) (*UnitResult, error) {
			col, err := scenario.HighwayRound(ncfg, round)
			if err != nil {
				return nil, err
			}
			return &UnitResult{Protocol: col}, nil
		},
		func(round int, u *UnitResult) error {
			res.Rounds[round] = u.Protocol
			return nil
		})
	return res
}

// Corridor adds every round of one multi-Infostation parameter point.
func (b *Batch) Corridor(point string, cfg scenario.CorridorConfig) *scenario.CorridorResult {
	ncfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return &scenario.CorridorResult{}
	}
	if ncfg.Arm == "" {
		ncfg.Arm = point
	}
	b.applyChannelMode(&ncfg.FastChannel)
	res := &scenario.CorridorResult{
		Config:      ncfg,
		CarIDs:      scenario.CarIDs(ncfg.Cars),
		RoadLengthM: scenario.CorridorRoadLength(ncfg),
		Rounds:      make([]*trace.Collector, ncfg.Rounds),
	}
	b.ctx.RecycleTraces(res.Rounds)
	b.addStoredRounds("corridor", point, ncfg.Rounds, ncfg,
		func(round int) (*UnitResult, error) {
			col, err := scenario.CorridorRound(ncfg, round)
			if err != nil {
				return nil, err
			}
			return &UnitResult{Protocol: col}, nil
		},
		func(round int, u *UnitResult) error {
			res.Rounds[round] = u.Protocol
			return nil
		})
	return res
}

// TwoWay adds every round of one two-way-highway parameter point.
func (b *Batch) TwoWay(point string, cfg scenario.TwoWayConfig) *scenario.TwoWayResult {
	ncfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return &scenario.TwoWayResult{}
	}
	if ncfg.Arm == "" {
		ncfg.Arm = point
	}
	b.applyChannelMode(&ncfg.FastChannel)
	res := &scenario.TwoWayResult{
		Config:   ncfg,
		CarIDs:   scenario.CarIDs(ncfg.Cars),
		RelayIDs: scenario.TwoWayRelayIDs(ncfg.RelayCars),
		Rounds:   make([]*trace.Collector, ncfg.Rounds),
	}
	b.ctx.RecycleTraces(res.Rounds)
	b.addStoredRounds("twoway", point, ncfg.Rounds, ncfg,
		func(round int) (*UnitResult, error) {
			col, err := scenario.TwoWayRound(ncfg, round)
			if err != nil {
				return nil, err
			}
			return &UnitResult{Protocol: col}, nil
		},
		func(round int, u *UnitResult) error {
			res.Rounds[round] = u.Protocol
			return nil
		})
	return res
}

// TrafficGrid adds every round of one signalized urban-grid parameter
// point. Per-round traffic streams land in the result alongside the
// protocol traces.
func (b *Batch) TrafficGrid(point string, cfg scenario.TrafficGridConfig) *scenario.TrafficGridResult {
	ncfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return &scenario.TrafficGridResult{}
	}
	if ncfg.Arm == "" {
		ncfg.Arm = point
	}
	b.applyChannelMode(&ncfg.FastChannel)
	res := &scenario.TrafficGridResult{
		Config:  ncfg,
		CarIDs:  scenario.CarIDs(ncfg.Cars),
		Rounds:  make([]*trace.Collector, ncfg.Rounds),
		Traffic: make([]*trace.Collector, ncfg.Rounds),
	}
	b.ctx.RecycleTraces(res.Rounds)
	b.addStoredRounds("trafficgrid", point, ncfg.Rounds, ncfg,
		func(round int) (*UnitResult, error) {
			col, stream, err := scenario.TrafficGridRound(ncfg, round)
			if err != nil {
				return nil, err
			}
			return &UnitResult{Protocol: col, Traffic: stream}, nil
		},
		func(round int, u *UnitResult) error {
			res.Rounds[round], res.Traffic[round] = u.Protocol, u.Traffic
			return nil
		})
	return res
}

// CityScale adds every round of one city-scale parameter point.
func (b *Batch) CityScale(point string, cfg scenario.CityScaleConfig) *scenario.CityScaleResult {
	ncfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return &scenario.CityScaleResult{}
	}
	if ncfg.Arm == "" {
		ncfg.Arm = point
	}
	b.applyChannelMode(&ncfg.FastChannel)
	res := &scenario.CityScaleResult{
		Config:  ncfg,
		CarIDs:  scenario.CarIDs(ncfg.Cars),
		Rounds:  make([]*trace.Collector, ncfg.Rounds),
		Traffic: make([]*trace.Collector, ncfg.Rounds),
	}
	for i := 0; i < ncfg.APs; i++ {
		res.APIDs = append(res.APIDs, scenario.APID+packet.NodeID(i))
	}
	b.ctx.RecycleTraces(res.Rounds)
	b.addStoredRounds("cityscale", point, ncfg.Rounds, ncfg,
		func(round int) (*UnitResult, error) {
			col, stream, err := scenario.CityScaleRound(ncfg, round)
			if err != nil {
				return nil, err
			}
			return &UnitResult{Protocol: col, Traffic: stream}, nil
		},
		func(round int, u *UnitResult) error {
			res.Rounds[round], res.Traffic[round] = u.Protocol, u.Traffic
			return nil
		})
	return res
}

// CityDemand adds every round of one demand-driven city parameter point.
func (b *Batch) CityDemand(point string, cfg scenario.CityDemandConfig) *scenario.CityDemandResult {
	ncfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return &scenario.CityDemandResult{}
	}
	if ncfg.Arm == "" {
		ncfg.Arm = point
	}
	b.applyChannelMode(&ncfg.FastChannel)
	res := &scenario.CityDemandResult{
		Config:   ncfg,
		CarIDs:   scenario.CarIDs(ncfg.Cars),
		Rounds:   make([]*trace.Collector, ncfg.Rounds),
		Traffic:  make([]*trace.Collector, ncfg.Rounds),
		Vehicles: make([]int, ncfg.Rounds),
	}
	for i := 0; i < ncfg.APs; i++ {
		res.APIDs = append(res.APIDs, scenario.APID+packet.NodeID(i))
	}
	b.ctx.RecycleTraces(res.Rounds)
	b.addStoredRounds("citydemand", point, ncfg.Rounds, ncfg,
		func(round int) (*UnitResult, error) {
			col, stream, vehicles, err := scenario.CityDemandRound(ncfg, round)
			if err != nil {
				return nil, err
			}
			meta, err := marshalMeta(roundMeta{Vehicles: vehicles})
			if err != nil {
				return nil, err
			}
			return &UnitResult{Meta: meta, Protocol: col, Traffic: stream}, nil
		},
		func(round int, u *UnitResult) error {
			m, err := unmarshalRoundMeta(u)
			if err != nil {
				return err
			}
			res.Rounds[round], res.Traffic[round], res.Vehicles[round] = u.Protocol, u.Traffic, m.Vehicles
			return nil
		})
	return res
}

// StopGo adds every round of one congested-highway parameter point.
func (b *Batch) StopGo(point string, cfg scenario.StopGoConfig) *scenario.StopGoResult {
	ncfg, err := cfg.Normalized()
	if err != nil {
		b.cfgErrors = append(b.cfgErrors, err)
		return &scenario.StopGoResult{}
	}
	if ncfg.Arm == "" {
		ncfg.Arm = point
	}
	b.applyChannelMode(&ncfg.FastChannel)
	res := &scenario.StopGoResult{
		Config:  ncfg,
		CarIDs:  scenario.CarIDs(ncfg.Cars),
		Rounds:  make([]*trace.Collector, ncfg.Rounds),
		Traffic: make([]*trace.Collector, ncfg.Rounds),
	}
	b.ctx.RecycleTraces(res.Rounds)
	b.addStoredRounds("stopgo", point, ncfg.Rounds, ncfg,
		func(round int) (*UnitResult, error) {
			col, stream, err := scenario.StopGoRound(ncfg, round)
			if err != nil {
				return nil, err
			}
			return &UnitResult{Protocol: col, Traffic: stream}, nil
		},
		func(round int, u *UnitResult) error {
			res.Rounds[round], res.Traffic[round] = u.Protocol, u.Traffic
			return nil
		})
	return res
}

// Download adds one multi-lap file-download point as a single unit (the
// download scenario is one continuous simulation, not rounds). The
// stored form carries the post-normalisation config and per-car
// summaries in the meta section and the trace as the protocol section.
func (b *Batch) Download(point string, cfg scenario.DownloadConfig) **scenario.DownloadResult {
	if cfg.Arm == "" {
		cfg.Arm = point
	}
	b.applyChannelMode(&cfg.FastChannel)
	res := new(*scenario.DownloadResult)
	b.addStoredRounds("download", point, 1, cfg,
		func(int) (*UnitResult, error) {
			r, err := scenario.RunDownload(cfg)
			if err != nil {
				return nil, err
			}
			meta, err := marshalMeta(downloadMeta{
				Config:    r.Config,
				Cars:      r.Cars,
				LapTimeNS: int64(r.LapTime),
			})
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
			*res = &scenario.DownloadResult{
				Config:  m.Config,
				Cars:    m.Cars,
				Trace:   u.Protocol,
				LapTime: time.Duration(m.LapTimeNS),
			}
			return nil
		})
	// The download result is a pointer filled by the unit; register its
	// trace once Go has resolved it.
	b.finalize = append(b.finalize, func() {
		if *res != nil {
			b.ctx.RecycleTraces([]*trace.Collector{(*res).Trace})
		}
	})
	return res
}

// TrafficGrid runs a single urban-grid point through the pool.
func (c *Context) TrafficGrid(point string, cfg scenario.TrafficGridConfig) (*scenario.TrafficGridResult, error) {
	b := c.Batch()
	res := b.TrafficGrid(point, cfg)
	if err := b.Go(); err != nil {
		return nil, err
	}
	return res, nil
}

// StopGo runs a single congested-highway point through the pool.
func (c *Context) StopGo(point string, cfg scenario.StopGoConfig) (*scenario.StopGoResult, error) {
	b := c.Batch()
	res := b.StopGo(point, cfg)
	if err := b.Go(); err != nil {
		return nil, err
	}
	return res, nil
}

// Testbed runs a single testbed point through the pool.
func (c *Context) Testbed(point string, cfg scenario.TestbedConfig) (*scenario.TestbedResult, error) {
	b := c.Batch()
	res := b.Testbed(point, cfg)
	if err := b.Go(); err != nil {
		return nil, err
	}
	return res, nil
}

// Highway runs a single drive-thru point through the pool.
func (c *Context) Highway(point string, cfg scenario.HighwayConfig) (*scenario.HighwayResult, error) {
	b := c.Batch()
	res := b.Highway(point, cfg)
	if err := b.Go(); err != nil {
		return nil, err
	}
	return res, nil
}

// Corridor runs a single corridor point through the pool.
func (c *Context) Corridor(point string, cfg scenario.CorridorConfig) (*scenario.CorridorResult, error) {
	b := c.Batch()
	res := b.Corridor(point, cfg)
	if err := b.Go(); err != nil {
		return nil, err
	}
	return res, nil
}

// TwoWay runs a single two-way point through the pool.
func (c *Context) TwoWay(point string, cfg scenario.TwoWayConfig) (*scenario.TwoWayResult, error) {
	b := c.Batch()
	res := b.TwoWay(point, cfg)
	if err := b.Go(); err != nil {
		return nil, err
	}
	return res, nil
}
