// Command experiments regenerates every table and figure of the paper's
// evaluation, plus the ablation and extension studies, through the
// internal/harness orchestration layer: each study is a registered
// experiment that decomposes into independent (scenario, parameter-point,
// round) work units executed on a worker pool. Per-unit RNG seeds derive
// from the root seed alone, so any worker count produces byte-identical
// outputs.
//
// Usage:
//
//	experiments [-exp all|<name>[,<name>...]] [-rounds 30] [-seed 1]
//	            [-out results] [-workers N] [-list]
//	            [-result-store dir] [-code-digest id]
//	            [-metrics] [-progress]
//	            [-unit-timeout d] [-faultpoints specs]
//	            [-cpuprofile file] [-memprofile file]
//
// Outputs are written to the -out directory as plain-text reports,
// gnuplot-ready .dat series and SVG figures, plus a machine-readable
// manifest.json describing every experiment, seed and output file and a
// timings.json sidecar with run provenance. The shared sweep flags
// (rounds, seed, out, workers, result store, ...) are bound from
// harness.Options; cmd/sweepd, which runs no sweep, declares its own.
//
// -result-store points work-unit resolution at a content-addressed
// on-disk store of unit results keyed by root seed, unit identity and
// config/code digests: re-running a sweep only computes units whose key
// changed, an interrupted sweep resumes where it stopped, and several
// processes shard one sweep by sharing the directory.
//
// Traffic worlds are recorded once per process and shared through an
// in-memory cache; nothing stores them on disk. -traffic-store is
// ignored: it only creates its directory, for the benchmark's resume
// workload (bench/run.go), which still passes it and measures the
// directory. It goes when ROADMAP item 1's benchmark change drops it
// there.
//
// -metrics enables the telemetry registry (internal/metrics): simulator,
// cache and store counters accumulate across the run and a metrics.json
// snapshot lands beside timings.json. Enabling it never changes a byte
// of any trace, report or the manifest (test-enforced). -progress
// (implies -metrics) adds a once-a-second stderr ticker with live unit
// counts. -cpuprofile/-memprofile wrap the whole run in pprof profiling,
// the hook for hunting sweep-serving regressions.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	if err := runArgs(flag.CommandLine, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// runArgs parses args into fs and runs what they select. Everything
// fallible runs inside it: log.Fatal calls os.Exit, which would skip the
// profiling defers and leave a truncated cpu.pprof / missing mem.pprof
// on the very failing sweeps the profiling mode exists to debug.
func runArgs(fs *flag.FlagSet, args []string) error {
	opts := harness.DefaultOptions()
	opts.Bind(fs)
	var (
		exp        = fs.String("exp", "all", "experiments to run: all, or a comma-separated list of names")
		list       = fs.Bool("list", false, "print the experiment catalogue and exit")
		progress   = fs.Bool("progress", false, "print live unit progress to stderr once a second (implies -metrics)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof allocation profile at the end of the run to this file")
		// Ignored but for creating its directory (see the package doc).
		trafficStore = fs.String("traffic-store", "", "ignored: creates this directory and nothing else; traffic worlds are not stored on disk (goes with ROADMAP item 1's benchmark change)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printCatalogue(os.Stdout)
		return nil
	}
	if *trafficStore != "" {
		if err := os.MkdirAll(*trafficStore, 0o755); err != nil {
			return err
		}
	}
	return run(*exp, opts, *progress, *cpuProfile, *memProfile)
}

func run(exp string, opts harness.Options, progress bool, cpuProfile, memProfile string) (err error) {
	opts.Logf = log.Printf
	if progress {
		opts.Metrics = true
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, ferr := os.Create(memProfile)
			if ferr != nil {
				if err == nil {
					err = ferr
				}
				return
			}
			defer f.Close()
			runtime.GC() // materialise the final live set
			if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	runner, err := harness.NewRunner(opts)
	if err != nil {
		return err
	}

	names := harness.Names()
	if exp != "all" {
		names = names[:0]
		for _, name := range strings.Split(exp, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no experiments selected by -exp %q", exp)
	}
	if progress {
		stop := startProgressTicker(os.Stderr, runner, time.Second)
		defer stop()
	}
	return runner.Run(names)
}

// startProgressTicker prints the runner's live unit counters to w at
// every interval until the returned stop function runs. Lines only
// appear once units exist and then whenever the counts move, so an idle
// setup phase stays quiet. The final state is printed at stop, so short
// sweeps still report their totals.
func startProgressTicker(w io.Writer, runner *harness.Runner, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		var last harness.Progress
		emit := func() {
			p := runner.Progress()
			if p == last || p.UnitsTotal == 0 {
				return
			}
			last = p
			fmt.Fprintf(w, "progress: %d/%d units (%d computed, %d cached)\n",
				p.UnitsDone, p.UnitsTotal, p.UnitsComputed, p.UnitsCached)
		}
		for {
			select {
			case <-t.C:
				emit()
			case <-done:
				emit()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// printCatalogue renders the registry as the experiment catalogue: one
// line per study with its CLI name, aliases and the "A<n>: ..." title.
func printCatalogue(w io.Writer) {
	fmt.Fprintln(w, "Registered experiments (run order under -exp all):")
	fmt.Fprintln(w)
	for _, e := range harness.Experiments() {
		name := e.Name
		if len(e.Aliases) > 0 {
			name += " (" + strings.Join(e.Aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "  %-22s %s\n", name, e.Title)
	}
}
