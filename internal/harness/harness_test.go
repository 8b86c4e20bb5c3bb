package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// restoreRegistry returns the process-global registry to its current
// contents when t ends, so tests that register experiments can run again
// in the same process (go test -count=N).
func restoreRegistry(t *testing.T) {
	t.Helper()
	registry.Lock()
	order := append([]*Experiment(nil), registry.order...)
	byName := make(map[string]*Experiment, len(registry.byName))
	for name, e := range registry.byName {
		byName[name] = e
	}
	registry.Unlock()
	t.Cleanup(func() {
		registry.Lock()
		registry.order, registry.byName = order, byName
		registry.Unlock()
	})
}

func TestRegistryLookupAndOrder(t *testing.T) {
	restoreRegistry(t)
	Register(Experiment{Name: "reg-a", Title: "A", Aliases: []string{"reg-a-alias"}, Run: func(*Context) error { return nil }})
	Register(Experiment{Name: "reg-b", Title: "B", Run: func(*Context) error { return nil }})

	if _, ok := lookup("reg-a"); !ok {
		t.Fatal("reg-a not found")
	}
	if e, ok := lookup("reg-a-alias"); !ok || e.Name != "reg-a" {
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
	restoreRegistry(t)
	Register(Experiment{Name: "reg-dup", Run: func(*Context) error { return nil }})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Experiment{Name: "reg-dup", Run: func(*Context) error { return nil }})
}

func TestPoolDoFillsAllSlots(t *testing.T) {
	p := newPool(4)
	const n = 100
	out := make([]int, n)
	errs := p.doAll(n, func(i int) error {
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
	p := newPool(width)
	var cur, max atomic.Int64
	var mu sync.Mutex
	for _, err := range p.doAll(50, func(int) error {
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
	restoreRegistry(t)
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
	if len(r.manifest.Experiments) != 1 {
		t.Fatalf("manifest records = %d, want 1", len(r.manifest.Experiments))
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
	Add(b, "bad", bad, &res)
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

// TestEmitReplacesAtomically: a reader holding an output open (sweepd,
// serving a directory a sweep is rewriting) still reads the complete old
// bytes after a rerun rewrites it, the path then holds the new bytes,
// and no temp file is left behind.
func TestEmitReplacesAtomically(t *testing.T) {
	restoreRegistry(t)
	dir := t.TempDir()
	content := "first run\n"
	Register(Experiment{
		Name:  "reg-emit-probe",
		Title: "emits one file",
		Run:   func(c *Context) error { return c.Emit("probe.txt", OutputRaw, content) },
	})
	run := func() {
		t.Helper()
		r, err := NewRunner(Options{Rounds: 1, Seed: 1, OutDir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run([]string{"reg-emit-probe"}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	path := filepath.Join(dir, "probe.txt")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	content = "second run, longer\n"
	run()
	held, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(held) != "first run\n" {
		t.Fatalf("open reader saw %q after the rewrite, want the old bytes", held)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != content {
		t.Fatalf("rewritten probe.txt = %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".probe.txt.tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestRunnerWritesManifest(t *testing.T) {
	restoreRegistry(t)
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
	m, err := readManifest(filepath.Join(dir, "manifest.json"))
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

// TestRunReleasesRoundTraces pins round-trace ownership: a round's
// protocol trace is an ordinary value owned by the study that reads it,
// so once the experiment returns nothing in the runner, the scenario
// layer or the result store keeps it alive. Both the computed pass and
// the pass that decodes every round from the store must release all of
// their collectors to the garbage collector.
func TestRunReleasesRoundTraces(t *testing.T) {
	restoreRegistry(t)
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	const rounds = 2
	var released atomic.Int64
	Register(Experiment{
		Name: "reg-release-traces",
		Run: func(c *Context) error {
			cfg := scenario.DefaultHighway()
			cfg.Rounds = rounds
			cfg.Cars = 1
			b := c.Batch()
			var res *scenario.HighwayResult
			Add(b, "p", cfg, &res)
			if err := b.Go(); err != nil {
				return err
			}
			for _, col := range res.Rounds {
				runtime.SetFinalizer(col, func(*trace.Collector) { released.Add(1) })
			}
			return nil
		},
	})
	storeDir := t.TempDir()
	for _, pass := range []struct {
		name             string
		computed, cached int
	}{{"computed", rounds, 0}, {"cached", 0, rounds}} {
		released.Store(0)
		r, err := NewRunner(Options{Rounds: rounds, Seed: 3, OutDir: t.TempDir(), ResultStore: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run([]string{"reg-release-traces"}); err != nil {
			t.Fatal(err)
		}
		tim := r.timings.Experiments[0]
		if tim.UnitsComputed != pass.computed || tim.UnitsCached != pass.cached {
			t.Fatalf("%s pass: computed %d, cached %d", pass.name, tim.UnitsComputed, tim.UnitsCached)
		}
		// Finalizers run on their own goroutine after the cycle that
		// found the collector unreachable: give them a bounded while.
		for i := 0; i < 50 && released.Load() < rounds; i++ {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		if n := released.Load(); n != rounds {
			t.Fatalf("%s pass: %d of %d round collectors released", pass.name, n, rounds)
		}
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
// determinism contract: decomposing an experiment into pooled,
// store-backed work units must reproduce scenario.RunRounds bit for bit —
// its results, and the study view of its traces — both when a cold run
// computes the units and when a warm run loads them. The testbed stores
// no meta; the download stores its cars.
func TestBatchTestbedMatchesRunTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	t.Run("testbed", func(t *testing.T) {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = 2
		cfg.Seed = 3
		// The batch keys the sweep arm by the point label; pin it on the
		// direct run too so both execute the identical config.
		cfg.Arm = "p"
		direct, err := scenario.RunRounds(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := analysis.Table1(direct.Rounds, direct.CarIDs)
		for _, pooled := range coldWarm(t, cfg) {
			got := analysis.Table1(pooled.Rounds, pooled.CarIDs)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("pooled testbed diverges from direct run:\n%+v\nvs\n%+v", want, got)
			}
			sameTraces(t, pooled.Rounds, studyViews(direct.Rounds))
			if pooled.RoundDuration != direct.RoundDuration {
				t.Fatalf("round duration %v vs %v", pooled.RoundDuration, direct.RoundDuration)
			}
		}
	})
	t.Run("download", func(t *testing.T) {
		cfg := smallDownload()
		cfg.Seed = 3
		cfg.Arm = "p"
		direct, err := scenario.RunRounds(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pooled := range coldWarm(t, cfg) {
			if !reflect.DeepEqual(pooled.Cars, direct.Cars) {
				t.Fatalf("pooled download cars diverge from direct run:\n%+v\nvs\n%+v", pooled.Cars, direct.Cars)
			}
			if pooled.LapTime != direct.LapTime {
				t.Fatalf("lap time %v vs %v", pooled.LapTime, direct.LapTime)
			}
			sameTraces(t, []*trace.Collector{pooled.Trace}, studyViews([]*trace.Collector{direct.Trace}))
		}
	})
}

// smallDownload is a download that ends within two laps.
func smallDownload() scenario.DownloadConfig {
	cfg := scenario.DefaultDownload()
	cfg.FileBlocks = 40
	cfg.MaxLaps = 2
	return cfg
}

// storedPoint runs cfg as point "p" through a batch backed by the result
// store in storeDir, at the config's seed, and returns the result with
// the number of units the run computed and loaded from the store.
func storedPoint[C scenario.Family[C, R], R any, P interface {
	*C
	Base() *scenario.Common
}](t *testing.T, storeDir string, cfg C) (res R, computed, cached int64) {
	t.Helper()
	r, err := NewRunner(Options{
		Rounds: 1, Seed: P(&cfg).Base().Seed, OutDir: t.TempDir(), Workers: 4,
		ResultStore: storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &Context{runner: r, rec: &ExperimentRecord{Name: "stored-point"}}
	b := c.Batch()
	Add[C, R, P](b, "p", cfg, &res)
	if err := b.Go(); err != nil {
		t.Fatal(err)
	}
	return res, c.computed.Load(), c.cached.Load()
}

// coldWarm runs cfg through storedPoint twice over one empty store: a
// cold run that computes every unit, then a warm run that loads every
// unit. It returns both results.
func coldWarm[C scenario.Family[C, R], R any, P interface {
	*C
	Base() *scenario.Common
}](t *testing.T, cfg C) []R {
	t.Helper()
	storeDir := t.TempDir()
	units := int64(cfg.NumRounds())
	cold, computed, cached := storedPoint[C, R, P](t, storeDir, cfg)
	if computed != units || cached != 0 {
		t.Fatalf("cold run computed %d and loaded %d units, want %d and 0", computed, cached, units)
	}
	warm, computed, cached := storedPoint[C, R, P](t, storeDir, cfg)
	if computed != 0 || cached != units {
		t.Fatalf("warm run computed %d and loaded %d units, want 0 and %d", computed, cached, units)
	}
	return []R{cold, warm}
}

// studyViews returns the study view (analysis.StudyView) of each trace:
// what a stored round keeps of it.
func studyViews(cols []*trace.Collector) []*trace.Collector {
	views := make([]*trace.Collector, len(cols))
	for i, c := range cols {
		views[i] = analysis.StudyView(c)
	}
	return views
}

// sameTraces fails t unless got and want hold the same traces, compared
// by their binary encoding.
func sameTraces(t *testing.T, got, want []*trace.Collector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d traces, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].AppendBinary(nil), want[i].AppendBinary(nil)) {
			t.Fatalf("trace %d differs", i)
		}
	}
}
