package harness

import (
	"flag"
	"fmt"
	"runtime/debug"
	"time"
)

// Options is the one configuration surface of a sweep: an output
// directory for reports and the manifest, an optional content-addressed
// result store for unit results, an optional precomputed traffic-trace
// store, and the run's knobs. cmd/experiments binds it to flags through
// Bind; cmd/sweepd, which runs no sweep, declares its own six flags.
type Options struct {
	// Rounds is the requested round count for the canonical experiments;
	// studies may cap it per point (see Context.CappedRounds).
	Rounds int
	// Seed roots all randomness. Every work unit derives its own
	// deterministic streams from it, and it is part of every result-store
	// key.
	Seed int64
	// OutDir receives every report, data series, the manifest and the
	// timings sidecar.
	OutDir string
	// Workers bounds concurrent work units; <= 0 means GOMAXPROCS.
	Workers int
	// FastChannel selects the radio channel's approximate fast mode for
	// every scenario in the sweep (radio.Config.FastMode). It changes
	// results — statistically equivalent, not byte-identical — so it is
	// part of every scenario's config digest and exact/fast results never
	// alias in the result store.
	FastChannel bool
	// ResultStore, when non-empty, is the directory of the
	// content-addressed unit-result store: units whose key (seed, unit
	// identity, config digest, code digest) is already stored are loaded
	// instead of recomputed, so interrupted sweeps resume and N processes
	// can shard one sweep through a shared directory.
	ResultStore string
	// TrafficStore, when non-empty, is the directory of the on-disk
	// precomputed traffic-trace store (see traffic.Store).
	TrafficStore string
	// TrafficStoreCap is the traffic store's byte budget; 0 is unbounded.
	TrafficStoreCap int64
	// Metrics enables the process-wide telemetry registry
	// (internal/metrics): simulator and store counters accumulate, and the
	// runner writes a metrics.json snapshot beside timings.json. Off by
	// default — the disabled registry costs the hot paths one predictable
	// branch — and never affects traces or the manifest (test-enforced).
	Metrics bool
	// UnitTimeout, when positive, arms a per-unit watchdog: units still
	// running after this long are flagged — logged, counted, listed in
	// timings.json — but never killed, so a slow unit degrades to a
	// diagnostic instead of a lost sweep. Off by default.
	UnitTimeout time.Duration
	// FaultPoints arms deterministic fault injection
	// (internal/faultpoint) from the CLI: comma-separated
	// name=action[:arg][@selector]... specs. Empty leaves injection
	// disabled, which is the production state.
	FaultPoints string
	// CodeDigest identifies the code that computed stored results; it is
	// part of every result-store key, so results computed by different
	// code never alias. Empty derives it from the build's VCS stamp
	// (revision plus dirty marker) and falls back to "dev" for unstamped
	// builds — bump ResultStoreSchema for semantic changes instead.
	CodeDigest string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Now supplies timestamps for the timings sidecar; nil means
	// time.Now. Injectable so tests can pin the clock and byte-compare
	// whole output directories.
	Now func() time.Time
}

// DefaultOptions returns the sweep defaults.
func DefaultOptions() Options {
	return Options{
		Rounds: 30,
		Seed:   1,
		OutDir: "results",
	}
}

// Bind registers the sweep flags on fs, writing through to o.
// cmd/experiments, its one caller, adds its private flags (-exp,
// profiling, ...) beside these.
func (o *Options) Bind(fs *flag.FlagSet) {
	fs.IntVar(&o.Rounds, "rounds", o.Rounds, "rounds for the canonical testbed experiments")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "root random seed")
	fs.StringVar(&o.OutDir, "out", o.OutDir, "output directory (reports, series, manifest.json, timings.json)")
	fs.IntVar(&o.Workers, "workers", o.Workers, "concurrent work units (0: GOMAXPROCS)")
	fs.BoolVar(&o.FastChannel, "fast-channel", o.FastChannel, "approximate fast channel mode: quantised PER tables and coarsened shadowing, statistically equivalent to exact mode (digested, so results never alias exact ones)")
	fs.StringVar(&o.ResultStore, "result-store", o.ResultStore, "directory of the content-addressed unit-result store (empty: recompute everything)")
	fs.StringVar(&o.TrafficStore, "traffic-store", o.TrafficStore, "directory of the on-disk precomputed traffic-trace store (empty: in-memory cache only)")
	fs.Int64Var(&o.TrafficStoreCap, "traffic-store-cap", o.TrafficStoreCap, "byte budget of the traffic-trace store: least-recently-used traces are evicted past it (0: unbounded)")
	fs.BoolVar(&o.Metrics, "metrics", o.Metrics, "enable the telemetry registry and write a metrics.json snapshot beside timings.json")
	fs.DurationVar(&o.UnitTimeout, "unit-timeout", o.UnitTimeout, "flag work units still running after this long (watchdog: logged and listed in timings.json, never killed; 0: off)")
	fs.StringVar(&o.FaultPoints, "faultpoints", o.FaultPoints, "arm deterministic fault injection: comma-separated name=action[:arg][@hit=n][@key=k][@seed=s:n][@count=n] specs (testing and CI only)")
	fs.StringVar(&o.CodeDigest, "code-digest", o.CodeDigest, "code identity mixed into result-store keys (empty: VCS build stamp, or \"dev\")")
}

// Validate checks the options and fills derived defaults (code digest,
// clock). It returns the validated copy so callers can keep a literal.
func (o Options) Validate() (Options, error) {
	if o.Rounds <= 0 {
		return o, fmt.Errorf("harness: non-positive rounds %d", o.Rounds)
	}
	if o.OutDir == "" {
		return o, fmt.Errorf("harness: empty output directory")
	}
	if o.TrafficStoreCap < 0 {
		return o, fmt.Errorf("harness: negative traffic store cap %d", o.TrafficStoreCap)
	}
	if o.UnitTimeout < 0 {
		return o, fmt.Errorf("harness: negative unit timeout %v", o.UnitTimeout)
	}
	if o.CodeDigest == "" {
		o.CodeDigest = buildCodeDigest()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o, nil
}

// buildCodeDigest derives the default code identity from the binary's
// VCS build stamp. Unstamped builds (go test, go run) digest as "dev":
// within one working tree that is exactly the sharing wanted, and the
// ResultStoreSchema constant still invalidates stores across semantic
// changes.
func buildCodeDigest() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var revision, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if revision == "" {
		return "dev"
	}
	if modified == "true" {
		return revision + "+dirty"
	}
	return revision
}
