package scenario_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/storeutil"
	"repro/internal/traffic"
)

// summaryProbe is the run body of the registered "stored-summary-probe"
// experiment; each run sets it first.
var summaryProbe func(*harness.Context) error

func init() {
	harness.Register(harness.Experiment{
		Name:  "stored-summary-probe",
		Title: "adds one traffic-family point for the stored-summary check",
		Run:   func(c *harness.Context) error { return summaryProbe(c) },
	})
}

// summaryCase is one traffic family at test size: add puts its point on
// a batch and returns the summaries the batch applied once it has run;
// world runs a round in process and returns the world it replays.
type summaryCase struct {
	name   string
	rounds int
	add    func(b *harness.Batch) func() []scenario.TrafficSummary
	world  func(round int) (*traffic.World, error)
}

// newSummaryCase builds the case of cfg, stamped the way the harness
// stamps the probe's point "p" under root seed 1.
func newSummaryCase[C scenario.Family[C, R], R any, P interface {
	*C
	Base() *scenario.Common
}](name string, cfg C, summaries func(R) []scenario.TrafficSummary,
	roundWorld func(C, int) (scenario.Round, *traffic.World, error)) summaryCase {
	base := P(&cfg).Base()
	base.Seed, base.Arm = 1, "p"
	return summaryCase{
		name:   name,
		rounds: cfg.NumRounds(),
		add: func(b *harness.Batch) func() []scenario.TrafficSummary {
			var out R
			harness.Add[C, R, P](b, "p", cfg, &out)
			return func() []scenario.TrafficSummary { return summaries(out) }
		},
		world: func(round int) (*traffic.World, error) {
			norm, err := cfg.Normalized()
			if err != nil {
				return nil, err
			}
			_, world, err := roundWorld(norm, round)
			return world, err
		},
	}
}

// TestStoredTrafficSummaryBitExact: a traffic family's stored unit keeps
// its round's traffic summary in the meta section instead of the world.
// A cold run fills an empty result store and a warm run is served from
// it; both apply, round by round, the summary of the world the round
// replays in process, bit for bit. Every stored entry's traffic section
// is absent.
func TestStoredTrafficSummaryBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	cases := []summaryCase{
		newSummaryCase("trafficgrid", scenario.QuickTrafficGrid(),
			func(r *scenario.TrafficGridResult) []scenario.TrafficSummary { return r.Traffic },
			scenario.RoundWorld[scenario.TrafficGridConfig]),
		newSummaryCase("stopgo", scenario.QuickStopGo(),
			func(r *scenario.StopGoResult) []scenario.TrafficSummary { return r.Traffic },
			scenario.RoundWorld[scenario.StopGoConfig]),
		newSummaryCase("cityscale", scenario.QuickCityScale(),
			func(r *scenario.CityScaleResult) []scenario.TrafficSummary { return r.Traffic },
			scenario.RoundWorld[scenario.CityScaleConfig]),
		newSummaryCase("citydemand", scenario.QuickCityDemand(),
			func(r *scenario.CityDemandResult) []scenario.TrafficSummary { return r.Traffic },
			scenario.RoundWorld[scenario.CityDemandConfig]),
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			storeDir := t.TempDir()
			cold, coldStats := runSummaryProbe(t, tc, storeDir)
			if coldStats.Saves != uint64(tc.rounds) {
				t.Fatalf("cold run saved %d units, want %d", coldStats.Saves, tc.rounds)
			}
			checkStoredHeaders(t, storeDir, tc.rounds)
			warm, warmStats := runSummaryProbe(t, tc, storeDir)
			if warmStats.Hits != uint64(tc.rounds) || warmStats.Saves != 0 {
				t.Fatalf("warm run stats %+v, want every unit served from the store", warmStats)
			}
			for round := 0; round < tc.rounds; round++ {
				world, err := tc.world(round)
				if err != nil {
					t.Fatal(err)
				}
				want := scenario.TraceSummary(world.Trace())
				if want.Samples == 0 {
					t.Fatalf("round %d: empty traffic world", round)
				}
				for run, got := range map[string]scenario.TrafficSummary{"cold": cold[round], "warm": warm[round]} {
					if !sameBits(got, want) {
						t.Errorf("%s round %d: applied summary %+v, world summarises to %+v", run, round, got, want)
					}
				}
			}
		})
	}
}

// runSummaryProbe runs tc's point through a runner on storeDir and
// returns the applied summaries and the store's counters.
func runSummaryProbe(t *testing.T, tc summaryCase, storeDir string) ([]scenario.TrafficSummary, storeutil.Stats) {
	t.Helper()
	r, err := harness.NewRunner(harness.Options{
		Rounds: 1, Seed: 1, OutDir: t.TempDir(), Workers: 2, ResultStore: storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	var summaries func() []scenario.TrafficSummary
	summaryProbe = func(c *harness.Context) error {
		b := c.Batch()
		summaries = tc.add(b)
		return b.Go()
	}
	if err := r.Run([]string{"stored-summary-probe"}); err != nil {
		t.Fatal(err)
	}
	got := summaries()
	if len(got) != tc.rounds {
		t.Fatalf("applied %d summaries, want %d", len(got), tc.rounds)
	}
	return got, r.Store().Stats()
}

// checkStoredHeaders requires one entry per round, each with a meta
// section and without a traffic section.
func checkStoredHeaders(t *testing.T, storeDir string, rounds int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(storeDir, "*.unit.jsonl"))
	if err != nil || len(paths) != rounds {
		t.Fatalf("store holds %v (%v), want %d entries", paths, err, rounds)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var hdr struct {
			Schema   string  `json:"schema"`
			Sections []int64 `json:"sections"`
		}
		if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &hdr); err != nil {
			t.Fatal(err)
		}
		if hdr.Schema != harness.ResultStoreSchema || len(hdr.Sections) != 3 || hdr.Sections[0] <= 0 || hdr.Sections[2] != -1 {
			t.Fatalf("%s: header %+v, want a meta section and no traffic section", filepath.Base(path), hdr)
		}
	}
}

func sameBits(a, b scenario.TrafficSummary) bool {
	return math.Float64bits(a.MeanSpeedMPS) == math.Float64bits(b.MeanSpeedMPS) &&
		math.Float64bits(a.CrawlShare) == math.Float64bits(b.CrawlShare) &&
		a.Samples == b.Samples
}
