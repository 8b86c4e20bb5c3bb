package scenario

import (
	"fmt"
	"time"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DownloadConfig parameterises the file-download extension the paper's
// conclusions ask for: "how the presented loss reduction can reduce the
// number of APs that a vehicular node needs to visit to download a file".
// Cars circle the urban block; the Infostation cycles a fixed file of
// FileBlocks packets per flow; the experiment measures how many coverage
// visits each car needs to assemble the complete file, with and without
// cooperation.
type DownloadConfig struct {
	Common
	SpeedMPS float64
	// FileBlocks is the file size in packets per flow.
	FileBlocks uint32
	// MaxLaps bounds the simulation.
	MaxLaps int
}

// DefaultDownload returns a 220-block download on the testbed loop.
func DefaultDownload() DownloadConfig {
	return DownloadConfig{
		Common: Common{
			Cars:             3,
			Seed:             1,
			PacketsPerSecond: 5,
			PayloadBytes:     1000,
			Coop:             true,
		},
		SpeedMPS:   5.6,
		FileBlocks: 220,
		MaxLaps:    12,
	}
}

// Normalized validates the config and returns it unchanged.
func (cfg DownloadConfig) Normalized() (DownloadConfig, error) {
	if cfg.Cars <= 0 || cfg.FileBlocks == 0 || cfg.MaxLaps <= 0 {
		return cfg, fmt.Errorf("scenario: bad download config: cars=%d file blocks=%d max laps=%d",
			cfg.Cars, cfg.FileBlocks, cfg.MaxLaps)
	}
	if cfg.SpeedMPS <= 0 {
		return cfg, fmt.Errorf("scenario: speed %v", cfg.SpeedMPS)
	}
	return cfg, nil
}

// CarDownload is one car's download outcome.
type CarDownload struct {
	Car packet.NodeID
	// Completed reports whether the full file was assembled.
	Completed bool
	// CompletionTime is when the last block arrived.
	CompletionTime time.Duration
	// Visits is the number of AP coverage passes used (laps started
	// before completion).
	Visits int
	// Blocks is the number of distinct blocks held at the end.
	Blocks int
}

// DownloadResult is the file-download experiment output.
type DownloadResult struct {
	Config  DownloadConfig
	Cars    []CarDownload
	Trace   *trace.Collector
	LapTime time.Duration
}

// Name implements Family.
func (DownloadConfig) Name() string { return "download" }

// NumRounds implements Family: the download is one continuous run.
func (DownloadConfig) NumRounds() int { return 1 }

// Result implements Family.
func (cfg DownloadConfig) Result(rounds []Round) *DownloadResult {
	return &DownloadResult{
		Config:  cfg,
		Cars:    rounds[0].Cars,
		Trace:   rounds[0].Protocol,
		LapTime: loopLeader(cfg.SpeedMPS).LapTime(),
	}
}

// Round implements Family: the multi-lap file download. Round r seeds
// itself with the (r+1)-th draw of the config's download stream.
func (cfg DownloadConfig) Round(round int, col *trace.Collector) (Round, error) {
	seeds := sim.Stream(cfg.Seed, "download")
	var roundSeed int64
	for i := 0; i <= round; i++ {
		roundSeed = seeds.Int63()
	}

	leader := loopLeader(cfg.SpeedMPS)
	platoon, err := mobility.NewPlatoon(leader, testbedProfiles(cfg.Cars), sim.Stream(roundSeed, "platoon"))
	if err != nil {
		return Round{}, err
	}

	carIDs := CarIDs(cfg.Cars)

	duration := time.Duration(cfg.MaxLaps) * leader.LapTime()

	// done holds each car's completion instant.
	done := make(map[packet.NodeID]time.Duration, cfg.Cars)

	nodes, err := cfg.run(roundSeed, col, Setup{
		Channel: testbedChannel(),
		MAC:     mac.DefaultConfig(),
		APs: []APSpec{{
			Position: TestbedAPPosition(),
			Config: ap.Config{
				ID:               APID,
				Flows:            carIDs,
				PacketsPerSecond: cfg.PacketsPerSecond,
				PayloadBytes:     cfg.PayloadBytes,
				Repeats:          1,
				CycleLength:      cfg.FileBlocks,
			},
		}},
		Cars:     cfg.platoon(platoon.Cars()),
		Duration: duration,
		Hook: func(engine *sim.Engine, nodes map[packet.NodeID]Node) {
			// Poll completion once per simulated second.
			var probe func()
			probe = func() {
				for id, node := range nodes {
					if _, ok := done[id]; ok {
						continue
					}
					cn, ok := node.(*carq.Node)
					if !ok {
						continue
					}
					if cn.HaveCount() >= int(cfg.FileBlocks) {
						done[id] = engine.Now()
					}
				}
				if len(done) < len(nodes) {
					engine.Schedule(time.Second, probe)
				}
			}
			engine.Schedule(time.Second, probe)
		},
	})
	if err != nil {
		return Round{}, err
	}

	out := Round{Protocol: col}
	for i, id := range carIDs {
		cd := CarDownload{Car: id, Blocks: nodes[id].(*carq.Node).HaveCount()}
		if at, ok := done[id]; ok {
			cd.Completed = true
			cd.CompletionTime = at
			// A visit is a coverage pass. Every car enters coverage at
			// the same (unwrapped, per-lap) arc position; count how many
			// entries this car had made by completion time.
			arc := platoon.ArcAt(i, at)
			entry := loopLen - coverageSpillM
			if arc >= entry {
				cd.Visits = int((arc-entry)/loopLen) + 1
			}
			if cd.Visits > cfg.MaxLaps {
				cd.Visits = cfg.MaxLaps
			}
		} else {
			cd.Visits = cfg.MaxLaps
		}
		out.Cars = append(out.Cars, cd)
	}
	return out, nil
}
