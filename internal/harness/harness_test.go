package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func TestRegistryLookupAndOrder(t *testing.T) {
	Register(Experiment{Name: "reg-a", Title: "A", Aliases: []string{"reg-a-alias"}, Run: func(*Context) error { return nil }})
	Register(Experiment{Name: "reg-b", Title: "B", Run: func(*Context) error { return nil }})

	if _, ok := Lookup("reg-a"); !ok {
		t.Fatal("reg-a not found")
	}
	if e, ok := Lookup("reg-a-alias"); !ok || e.Name != "reg-a" {
		t.Fatalf("alias lookup = %v, %v", e, ok)
	}
	names := Names()
	ia, ib := -1, -1
	for i, n := range names {
		switch n {
		case "reg-a":
			ia = i
		case "reg-b":
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("registration order lost: %v", names)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(Experiment{Name: "reg-dup", Run: func(*Context) error { return nil }})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Experiment{Name: "reg-dup", Run: func(*Context) error { return nil }})
}

func TestPoolDoFillsAllSlots(t *testing.T) {
	p := NewPool(4)
	const n = 100
	out := make([]int, n)
	errs := p.DoAll(n, func(i int) error {
		out[i] = i * i
		return nil
	})
	if len(errs) != n {
		t.Fatalf("%d errors for %d units", len(errs), n)
	}
	for i, v := range out {
		if errs[i] != nil {
			t.Fatalf("slot %d: %v", i, errs[i])
		}
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestPoolDoBoundsConcurrency(t *testing.T) {
	const width = 3
	p := NewPool(width)
	var cur, max atomic.Int64
	var mu sync.Mutex
	for _, err := range p.DoAll(50, func(int) error {
		c := cur.Add(1)
		mu.Lock()
		if c > max.Load() {
			max.Store(c)
		}
		mu.Unlock()
		cur.Add(-1)
		return nil
	}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if m := max.Load(); m > width {
		t.Fatalf("observed %d concurrent units, want <= %d", m, width)
	}
}

// TestRunDedupsAliasesAndRepeats checks that names resolving to the same
// experiment (aliases, accidental repeats) run it once.
func TestRunDedupsAliasesAndRepeats(t *testing.T) {
	var runs atomic.Int64
	Register(Experiment{
		Name:    "reg-dedup",
		Aliases: []string{"reg-dedup-alias"},
		Run: func(*Context) error {
			runs.Add(1)
			return nil
		},
	})
	r := newTestRunner(t, 1)
	if err := r.Run([]string{"reg-dedup", "reg-dedup-alias", "reg-dedup"}); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("experiment ran %d times, want 1", n)
	}
	if len(r.Manifest().Experiments) != 1 {
		t.Fatalf("manifest records = %d, want 1", len(r.Manifest().Experiments))
	}
}

// TestBatchReuseAfterConfigError checks that a Batch is clean again
// after Go reports a config error from a previous accumulation.
func TestBatchReuseAfterConfigError(t *testing.T) {
	r := newTestRunner(t, 1)
	c := &Context{runner: r, rec: &ExperimentRecord{}}
	b := c.Batch()
	var res *scenario.TestbedResult
	Add(b, "bad", scenario.TestbedConfig{}, &res) // zero rounds/cars: rejected
	if err := b.Go(); err == nil {
		t.Fatal("invalid config accepted")
	}
	if err := b.Go(); err != nil {
		t.Fatalf("stale config error survived reset: %v", err)
	}
}

// TestBatchRejectsInvalidDownload: an invalid download config fails Go
// before any unit runs — no unit attempt, retry or failure record — like
// an invalid config of any round-based family.
func TestBatchRejectsInvalidDownload(t *testing.T) {
	r := newTestRunner(t, 1)
	tim := &ExperimentTiming{}
	c := &Context{runner: r, rec: &ExperimentRecord{}, tim: tim}
	b := c.Batch()
	bad := scenario.DefaultDownload()
	bad.FileBlocks = 0
	var res *scenario.DownloadResult
	AddDownload(b, "bad", bad, &res)
	if err := b.Go(); err == nil {
		t.Fatal("invalid download config accepted")
	}
	if tim.Retries != 0 || len(tim.Failed) != 0 || c.rec.Units != 0 {
		t.Fatalf("invalid config reached the pool: retries=%d failed=%d units=%d",
			tim.Retries, len(tim.Failed), c.rec.Units)
	}
}

func newTestRunner(t *testing.T, rounds int) *Runner {
	t.Helper()
	r, err := NewRunner(Options{Rounds: rounds, Seed: 1, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunnerWritesManifest(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRunner(Options{Rounds: 3, Seed: 7, OutDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	Register(Experiment{
		Name:  "reg-manifest-probe",
		Title: "writes one file through two units",
		Run: func(c *Context) error {
			if err := c.RunUnits([]Unit{
				{Scenario: "s", Point: "p", Round: 0, Run: func() error { return nil }},
				{Scenario: "s", Point: "p", Round: 1, Run: func() error { return nil }},
			}); err != nil {
				return err
			}
			return c.Emit("probe.txt", OutputRaw, "hello\n")
		},
	})
	if err := r.Run([]string{"reg-manifest-probe"}); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, "probe.txt")); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 7 || m.Rounds != 3 {
		t.Fatalf("manifest header = %+v", m)
	}
	if len(m.Experiments) != 1 {
		t.Fatalf("experiments = %d", len(m.Experiments))
	}
	rec := m.Experiments[0]
	if rec.Name != "reg-manifest-probe" || rec.Units != 2 {
		t.Fatalf("record = %+v", rec)
	}
	if len(rec.Outputs) != 1 || rec.Outputs[0].File != "probe.txt" || rec.Outputs[0].Kind != OutputRaw || rec.Outputs[0].Bytes != 6 || rec.Outputs[0].SHA256 == "" {
		t.Fatalf("outputs = %+v", rec.Outputs[0])
	}
	if len(rec.Points) != 1 || rec.Points[0].Rounds != 2 {
		t.Fatalf("points = %+v", rec.Points)
	}
	tim, err := ReadTimings(filepath.Join(dir, "timings.json"))
	if err != nil {
		t.Fatal(err)
	}
	if tim.Workers != 2 || tim.GeneratedAt == "" || tim.CodeDigest == "" {
		t.Fatalf("timings header = %+v", tim)
	}
	if len(tim.Experiments) != 1 || tim.Experiments[0].Name != "reg-manifest-probe" {
		t.Fatalf("timings experiments = %+v", tim.Experiments)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r := newTestRunner(t, 1)
	if err := r.Run([]string{"no-such-study"}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// TestRunnerRecyclesRoundCollectors pins the result-ownership
// restructure: round collectors registered by Batch result builders go
// back to the scenario trace pool once their experiment's Run returns,
// so a later experiment's rounds reuse them (Reset, same pointer)
// instead of allocating fresh ones. Serial runner, single rounds: the
// LIFO pool must hand experiment B exactly experiment A's collector.
func TestRunnerRecyclesRoundCollectors(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	tiny := func() scenario.HighwayConfig {
		cfg := scenario.DefaultHighway()
		cfg.Rounds = 1
		cfg.Cars = 1
		return cfg
	}
	var first, second *trace.Collector
	var firstTx int
	Register(Experiment{
		Name: "reg-recycle-a",
		Run: func(c *Context) error {
			b := c.Batch()
			var res *scenario.HighwayResult
			Add(b, "p", tiny(), &res)
			if err := b.Go(); err != nil {
				return err
			}
			first = res.Rounds[0]
			firstTx = len(first.Tx)
			return nil
		},
	})
	Register(Experiment{
		Name: "reg-recycle-b",
		Run: func(c *Context) error {
			b := c.Batch()
			var res *scenario.HighwayResult
			Add(b, "p", tiny(), &res)
			if err := b.Go(); err != nil {
				return err
			}
			second = res.Rounds[0]
			return nil
		},
	})
	r, err := NewRunner(Options{Rounds: 1, Seed: 2, OutDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// LIFO pool: A's collector lands on top when A finishes, so B's
	// single round must pop exactly it, whatever earlier tests parked.
	if err := r.Run([]string{"reg-recycle-a"}); err != nil {
		t.Fatal(err)
	}
	probe := first
	if probe == nil || firstTx == 0 {
		t.Fatal("experiment A produced no trace")
	}
	// The experiment is over: its collector must already be Reset for
	// reuse (the whole point of the ownership restructure).
	if len(probe.Tx) != 0 {
		t.Fatal("recycled collector still holds experiment A's records")
	}
	if err := r.Run([]string{"reg-recycle-b"}); err != nil {
		t.Fatal(err)
	}
	if second != probe {
		t.Fatal("experiment B did not reuse experiment A's recycled collector")
	}
}

// TestCityDemandWorkerInvariance is the cross-worker byte-identity
// acceptance test for the demand-driven city family: the same citydemand
// point decomposed onto 1 and 3 workers must produce byte-identical
// protocol traces round for round (Poisson arrivals, actuated signals
// and demand exits included).
func TestCityDemandWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	cfg := scenario.DefaultCityDemand()
	cfg.Rounds = 2
	cfg.Cars = 2
	cfg.GridRows, cfg.GridCols = 6, 6
	cfg.BlockM = 120
	cfg.DemandScale = 3
	cfg.Duration = 40 * time.Second
	cfg.Seed = 5

	run := func(workers int) [][]byte {
		r, err := NewRunner(Options{Rounds: 2, Seed: 5, OutDir: t.TempDir(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		c := &Context{runner: r, rec: &ExperimentRecord{}}
		b := c.Batch()
		var res *scenario.CityDemandResult
		Add(b, "p", cfg, &res)
		if err := b.Go(); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(res.Rounds))
		for i, col := range res.Rounds {
			var buf bytes.Buffer
			if err := col.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	serial := run(1)
	parallel := run(3)
	for i := range serial {
		if len(serial[i]) == 0 {
			t.Fatalf("round %d trace is empty", i)
		}
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Fatalf("round %d differs between 1 and 3 workers", i)
		}
	}
}

// TestBatchTestbedMatchesRunTestbed is the harness half of the
// determinism contract: decomposing a testbed experiment into pooled
// work units must reproduce scenario.RunRounds bit-for-bit.
func TestBatchTestbedMatchesRunTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	cfg := scenario.DefaultTestbed()
	cfg.Rounds = 2
	cfg.Seed = 3
	// The batch keys the sweep arm by the point label; pin it on the
	// direct run too so both execute the identical config.
	cfg.Arm = "canonical"

	direct, err := scenario.RunRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(Options{Rounds: 2, Seed: 3, OutDir: t.TempDir(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := &Context{runner: r, rec: &ExperimentRecord{}}
	b := c.Batch()
	var pooled *scenario.TestbedResult
	Add(b, "canonical", cfg, &pooled)
	if err := b.Go(); err != nil {
		t.Fatal(err)
	}

	want := analysis.Table1(direct.Rounds, direct.CarIDs)
	got := analysis.Table1(pooled.Rounds, pooled.CarIDs)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("pooled testbed diverges from direct run:\n%+v\nvs\n%+v", want, got)
	}
	if pooled.RoundDuration != direct.RoundDuration {
		t.Fatalf("round duration %v vs %v", pooled.RoundDuration, direct.RoundDuration)
	}
}
