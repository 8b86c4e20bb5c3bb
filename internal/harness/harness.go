package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/metrics"
)

// Runner executes registered experiments through a shared worker pool,
// resolves each work unit against the optional content-addressed result
// store, and accumulates the run manifest plus its timings sidecar.
type Runner struct {
	opts     Options
	pool     *Pool
	store    *ResultStore
	manifest *Manifest
	timings  *Timings
	// Live progress counters (see Progress). Always on: one atomic add
	// per work unit.
	unitsTotal    atomic.Int64
	unitsDone     atomic.Int64
	unitsComputed atomic.Int64
	unitsCached   atomic.Int64
}

// NewRunner validates opts, creates the output directory (and the
// result store, when configured) and returns a ready runner.
func NewRunner(opts Options) (*Runner, error) {
	opts, err := opts.Validate()
	if err != nil {
		return nil, err
	}
	if opts.Metrics {
		metrics.SetEnabled(true)
	}
	if opts.FaultPoints != "" {
		if err := faultpoint.ArmSpecs(opts.FaultPoints); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: creating %s: %w", opts.OutDir, err)
	}
	var store *ResultStore
	if opts.ResultStore != "" {
		if store, err = NewResultStore(opts.ResultStore); err != nil {
			return nil, err
		}
	}
	pool := NewPool(opts.Workers)
	r := &Runner{
		opts:  opts,
		pool:  pool,
		store: store,
		manifest: &Manifest{
			Schema: ManifestSchema,
			Seed:   opts.Seed,
			Rounds: opts.Rounds,
		},
		timings: &Timings{
			Schema:      ManifestSchema,
			GeneratedAt: opts.Now().UTC().Format(time.RFC3339),
			Workers:     pool.Workers(),
			CodeDigest:  opts.CodeDigest,
		},
	}
	// One unmissable line per faulted run, so nobody ever debugs an
	// injected failure as a real one.
	if armed := faultpoint.Armed(); len(armed) > 0 {
		r.logf("fault injection armed: %v", armed)
	}
	return r, nil
}

// Workers reports the effective pool width.
func (r *Runner) Workers() int { return r.pool.Workers() }

// Manifest returns the accumulated manifest.
func (r *Runner) Manifest() *Manifest { return r.manifest }

// Timings returns the accumulated timings sidecar.
func (r *Runner) Timings() *Timings { return r.timings }

// Store returns the result store, or nil when none is configured.
func (r *Runner) Store() *ResultStore { return r.store }

// Run resolves and executes the named experiments in order, then writes
// the manifest and timings. Unknown names fail before anything runs.
func (r *Runner) Run(names []string) error {
	exps := make([]*Experiment, 0, len(names))
	seen := make(map[*Experiment]bool, len(names))
	for _, name := range names {
		e, ok := Lookup(name)
		if !ok {
			return fmt.Errorf("harness: unknown experiment %q (have %v)", name, AllNames())
		}
		// Aliases and repeats resolve to one experiment; run it once
		// (the monolith likewise shared one run for table1/figures).
		if seen[e] {
			continue
		}
		seen[e] = true
		exps = append(exps, e)
	}
	// Experiments are isolated from each other the way units are from
	// units: a failing experiment is recorded (manifest Error, timings
	// failure list) and the sweep moves on, so one bad study never
	// discards its siblings' multi-hour results. The aggregate error —
	// listing every failed experiment — makes the process exit nonzero.
	var failures []error
	for _, e := range exps {
		if err := r.runOne(e); err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", e.Name, err))
			r.logf("%s failed: %v (continuing with remaining experiments)", e.Name, err)
		}
	}
	if err := r.WriteManifest(); err != nil {
		return err
	}
	r.logStoreSummary()
	if err := r.writeMetrics(); err != nil {
		return err
	}
	return errors.Join(failures...)
}

func (r *Runner) runOne(e *Experiment) error {
	rec := &ExperimentRecord{
		Name:   e.Name,
		Title:  e.Title,
		Seed:   r.opts.Seed,
		Rounds: r.opts.Rounds,
	}
	r.manifest.Experiments = append(r.manifest.Experiments, rec)
	tim := &ExperimentTiming{Name: e.Name}
	r.timings.Experiments = append(r.timings.Experiments, tim)
	ctx := &Context{runner: r, rec: rec, tim: tim}
	start := time.Now()
	err := e.Run(ctx)
	tim.WallMS = time.Since(start).Milliseconds()
	// The experiment's round traces became garbage when Run returned.
	// Collect them now, so they never share a GC cycle with the next
	// experiment's loads: otherwise whether a cycle lands before or after
	// that boundary decides a warm sweep's peak heap (about 65 or 95 MiB
	// resident across the catalogue, from run to run).
	runtime.GC()
	tim.UnitsComputed = int(ctx.computed.Load())
	tim.UnitsCached = int(ctx.cached.Load())
	// Failure and watchdog lists accumulate in pool-completion order;
	// sort them so the sidecar reads the same at any worker count.
	sort.Slice(tim.Failed, func(i, j int) bool { return tim.Failed[i].Unit < tim.Failed[j].Unit })
	sort.Strings(tim.Hung)
	if err != nil {
		rec.Error = err.Error()
	}
	return err
}

// WriteManifest writes manifest.json and its timings.json sidecar to
// the output directory.
func (r *Runner) WriteManifest() error {
	if err := r.manifest.WriteManifest(filepath.Join(r.opts.OutDir, "manifest.json")); err != nil {
		return err
	}
	return r.timings.WriteTimings(filepath.Join(r.opts.OutDir, "timings.json"))
}

func (r *Runner) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// Unit is one independent piece of simulation work: a
// (scenario, parameter-point, round) triple. Units must not share
// mutable state; the pool may run them in any order and on any worker.
type Unit struct {
	Scenario string
	Point    string
	Round    int
	Run      func() error
}

// Context is an experiment's view of the runner: deterministic seeds,
// capped rounds, pooled unit execution, result-store resolution and
// manifest-recorded typed outputs.
type Context struct {
	runner *Runner
	rec    *ExperimentRecord
	// tim is the experiment's timings-sidecar record; retry, failure and
	// watchdog provenance accumulates there under mu. Nil when the
	// Context is built outside runOne (direct-construction tests).
	tim *ExperimentTiming
	mu  sync.Mutex
	// computed counts units this experiment simulated; cached counts
	// units served from the result store. Units run concurrently.
	computed atomic.Int64
	cached   atomic.Int64
}

// Rounds returns the run's requested round count.
func (c *Context) Rounds() int { return c.runner.opts.Rounds }

// CappedRounds caps the requested rounds at n, for the ablation studies
// that historically bounded their cost.
func (c *Context) CappedRounds(n int) int {
	if c.Rounds() < n {
		return c.Rounds()
	}
	return n
}

// Seed returns the run's root seed. A Batch stamps it into every
// scenario config; each round then derives its own streams from it and
// the round index alone (sim.SeedFor), so any unit can be re-run in
// isolation and scheduling can never perturb results.
func (c *Context) Seed() int64 { return c.runner.opts.Seed }

// Logf emits a progress line prefixed with the experiment name.
func (c *Context) Logf(format string, args ...any) {
	c.runner.logf("%s: "+format, append([]any{c.rec.Name}, args...)...)
}

// fpUnit is the harness's own injection site, fired with the unit label
// (`scenario/point round N`) as key: a key-armed spec makes exactly that
// unit fail, panic or stall, at any worker count, and a hit-armed sleep
// parks the n-th unit so a crash-injection script can SIGKILL the sweep
// at a known point.
var fpUnit = faultpoint.New("harness.unit")

// unitRetryBackoff spaces the single retry of a failed unit — long
// enough for a transient cause (page-cache pressure, a racing writer)
// to clear, short enough to be invisible in a sweep.
var unitRetryBackoff = 100 * time.Millisecond

// RunUnits executes the units on the shared pool and records the
// decomposition in the manifest. Results must be communicated by each
// unit writing to its own slot in caller-owned storage.
//
// Units are isolated: a panicking or failing unit is retried once with
// backoff, and a second failure fails that unit alone — its siblings
// run to completion and persist to the result store, the failure is
// recorded (with its stack, for panics) in timings.json, and the
// deterministic aggregate error carries the lowest-index failure so the
// manifest reads the same at any worker count.
func (c *Context) RunUnits(units []Unit) error {
	for _, u := range units {
		c.recordPoint(u.Scenario, u.Point)
	}
	c.rec.Units += len(units)
	c.runner.unitsTotal.Add(int64(len(units)))
	if metrics.Enabled() {
		mUnitsTotal.Add(uint64(len(units)))
	}
	errs := c.runner.pool.DoAll(len(units), func(i int) error {
		u := units[i]
		label := fmt.Sprintf("%s/%s round %d", u.Scenario, u.Point, u.Round)
		start := time.Now()
		err := c.runUnit(label, u)
		c.runner.unitsDone.Add(1)
		if metrics.Enabled() {
			mUnitWall.ObserveDuration(time.Since(start))
			mUnitsDone.Inc()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		return nil
	})
	return c.failUnits(errs)
}

// runUnit is one unit with isolation applied: a guarded attempt, one
// retry after backoff, and terminal failures recorded in the timings
// sidecar before the unit's error is returned to its slot.
func (c *Context) runUnit(label string, u Unit) error {
	err := c.attemptUnit(label, u)
	if err == nil {
		return nil
	}
	c.countRetry()
	c.Logf("unit %s failed (%v); retrying once after %v", label, err, unitRetryBackoff)
	time.Sleep(unitRetryBackoff)
	err2 := c.attemptUnit(label, u)
	if err2 == nil {
		return nil
	}
	c.recordFailed(label, err2, 2)
	return err2
}

// attemptUnit is one guarded attempt: the watchdog armed, the harness
// fault point fired, panics recovered into *PanicError with the stack
// captured on the unit's own goroutine.
func (c *Context) attemptUnit(label string, u Unit) (err error) {
	if d := c.runner.opts.UnitTimeout; d > 0 {
		fired := make(chan struct{})
		t := time.AfterFunc(d, func() {
			defer close(fired)
			c.flagHung(label, d)
		})
		// Stop returning false means the callback is running (or done);
		// wait it out so nothing touches the timing record after the
		// unit completes.
		defer func() {
			if !t.Stop() {
				<-fired
			}
		}()
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()
	if err := fpUnit.FireKey(label); err != nil {
		return err
	}
	return u.Run()
}

// failUnits folds the per-unit error slots into the experiment's
// aggregate: the lowest-index failure plus the failure count — a pure
// function of the slots, so the recorded error is byte-identical at any
// worker count.
func (c *Context) failUnits(errs []error) error {
	var first error
	n := 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		n++
	}
	switch {
	case first == nil:
		return nil
	case n == 1:
		return first
	default:
		return fmt.Errorf("%d units failed; first: %w", n, first)
	}
}

func (c *Context) countRetry() {
	if metrics.Enabled() {
		mUnitsRetried.Inc()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tim != nil {
		c.tim.Retries++
	}
}

func (c *Context) recordFailed(label string, err error, attempts int) {
	if metrics.Enabled() {
		mUnitsFailed.Inc()
	}
	var stack string
	var pe *PanicError
	if errors.As(err, &pe) {
		stack = pe.Stack
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tim != nil {
		c.tim.Failed = append(c.tim.Failed, &FailedUnit{
			Unit: label, Error: err.Error(), Stack: stack, Attempts: attempts,
		})
	}
}

// flagHung runs on the watchdog timer's goroutine when a unit outlives
// -unit-timeout. It only observes — the unit keeps running and may yet
// finish; killing it could corrupt shared caches mid-write.
func (c *Context) flagHung(label string, d time.Duration) {
	if metrics.Enabled() {
		mUnitsHung.Inc()
	}
	c.Logf("watchdog: unit %s still running after %v (flagged, not killed)", label, d)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tim != nil {
		c.tim.Hung = append(c.tim.Hung, label)
	}
}

func (c *Context) recordPoint(scenario, point string) {
	for _, p := range c.rec.Points {
		if p.Scenario == scenario && p.Point == point {
			p.Rounds++
			return
		}
	}
	c.rec.Points = append(c.rec.Points, &PointRecord{Scenario: scenario, Point: point, Rounds: 1})
}

// unitKey is the canonical result-store key of one work unit: schema,
// root seed, full unit identity and the config/code digests. Any input
// that could change the unit's result changes the key, so a shared
// store can never serve a stale or foreign result.
func (c *Context) unitKey(scenarioName, point string, round int, cfgDigest string) string {
	return fmt.Sprintf("%s|seed=%d|exp=%q|scen=%q|point=%q|round=%d|cfg=%s|code=%s",
		ResultStoreSchema, c.runner.opts.Seed, c.rec.Name, scenarioName, point, round,
		cfgDigest, c.runner.opts.CodeDigest)
}

// loadUnit resolves key against the result store. A hit returns the
// stored result and counts it as cached; a miss — including an
// unusable file, which is logged and recomputed over — returns nil.
func (c *Context) loadUnit(key string) *UnitResult {
	if c.runner.store == nil {
		return nil
	}
	res, err := c.runner.store.Load(key)
	if err != nil {
		c.Logf("result store: %v (recomputing)", err)
		return nil
	}
	if res == nil {
		return nil
	}
	c.cached.Add(1)
	c.runner.unitsCached.Add(1)
	if metrics.Enabled() {
		mUnitsCached.Inc()
	}
	return res
}

// saveUnit counts a computed unit and persists it when a store is
// configured. Persistence is best effort: a full disk degrades the
// sweep to recomputation, never fails it.
func (c *Context) saveUnit(key string, res *UnitResult) {
	c.computed.Add(1)
	c.runner.unitsComputed.Add(1)
	if metrics.Enabled() {
		mUnitsComputed.Inc()
	}
	if c.runner.store == nil {
		return
	}
	if err := c.runner.store.Save(key, res); err != nil {
		c.Logf("result store: %v", err)
	}
}

// Emit writes a typed output to the run's output directory and records
// it (kind, size, content hash) in the manifest. The kind drives the
// content type the results API serves the file under; the hash is its
// ETag. Names are flat: an output must not escape the output directory.
func (c *Context) Emit(name string, kind OutputKind, content string) error {
	if !kind.valid() {
		return fmt.Errorf("emit %s: unknown output kind %q", name, kind)
	}
	if name == "" || name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return fmt.Errorf("emit: output name %q is not a plain file name", name)
	}
	path := filepath.Join(c.runner.opts.OutDir, name)
	data := []byte(content)
	// Published by rename, so a reader (sweepd) holding the old file
	// open never sees a half-written one. The ".<name>.tmp" temp cannot
	// collide with an output: names starting with "." are rejected above.
	if err := writeFileAtomic(path, data); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	c.rec.Outputs = append(c.rec.Outputs, newOutputRecord(name, kind, data))
	c.runner.logf("wrote %s", path)
	return nil
}
