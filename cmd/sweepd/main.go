// Command sweepd serves a sweep's results over HTTP — the
// heavy-traffic face of the experiment harness. It sits on the same
// output directory (and optional content-addressed result store) that
// cmd/experiments writes, and serves:
//
//	/api/catalogue   the manifest as an API: every experiment, every
//	                 output with URL, typed kind, size and ETag
//	/api/manifest    raw manifest.json
//	/api/store       result-store summary (entries, bytes)
//	/api/metrics     telemetry: the sweep's metrics.json (written by
//	                 experiments -metrics) merged with this process's
//	                 live registry — Prometheus text exposition by
//	                 default, JSON under Accept: application/json
//	/api/progress    sweep completion: unit totals and computed-vs-
//	                 cached splits from the manifest and timings
//	/outputs/<file>  one study output, content type from its recorded
//	                 kind (raw/table: text/plain, plot: image/svg+xml)
//	/bench/          the committed BENCH_<n>.json perf snapshots
//	/healthz         liveness (plain text)
//	/api/healthz     liveness + manifest state + uptime (JSON)
//	/debug/pprof/    live profiling (only with -debug)
//
// Every output's ETag is the content hash the harness recorded in the
// manifest, so conditional GETs (If-None-Match) answer 304 without
// reading the file. The manifest is reloaded when it changes on disk:
// sweepd can keep serving while experiment processes shard new work
// into the same directory behind it.
//
// The process is hardened for unattended serving: the http.Server
// carries read/write/idle timeouts, a panic in any handler answers 500
// (counted in sweepd_panics_total) instead of killing the process, and
// SIGTERM/SIGINT drain in-flight requests for up to -drain before the
// process exits cleanly.
//
// Usage:
//
//	sweepd [-addr :8080] [-out results] [-result-store dir]
//	       [-bench-dir .] [-drain 10s] [-debug]
//
// Those six flags are the whole command line: sweepd runs no simulation,
// so the sweep flags of cmd/experiments (-rounds, -seed, -workers, ...)
// are rejected as unknown.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // mounted under /debug/pprof/ only with -debug
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweepd: ")

	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	// Serving telemetry is the point of this process; no simulation runs
	// here, so there is no determinism contract to protect by gating.
	metrics.SetEnabled(true)

	var store *harness.ResultStore
	if cfg.resultStore != "" {
		if store, err = harness.NewResultStore(cfg.resultStore); err != nil {
			log.Fatal(err)
		}
	}

	s := newServer(cfg.out, cfg.benchDir, store, cfg.debug)
	if err := s.refresh(); err != nil {
		// Not fatal: the producer may not have written a manifest yet;
		// handlers answer 503 until one appears.
		log.Printf("%v", err)
	}
	// A configured server, not bare ListenAndServe: header/read/write/
	// idle timeouts bound what one slow or malicious client can hold, and
	// signal-driven Shutdown drains in-flight requests instead of
	// dropping them mid-body when the process is told to go.
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving %s on %s", cfg.out, cfg.addr)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		// The listener died on its own (port taken, socket error).
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%v: draining for up to %v", sig, cfg.drain)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Past the drain deadline: close what remains and report it.
			srv.Close()
			log.Fatalf("drain deadline exceeded: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Print("shutdown complete")
	}
}

// config is sweepd's whole command-line surface.
type config struct {
	addr        string
	out         string
	resultStore string
	benchDir    string
	drain       time.Duration
	debug       bool
}

// parseFlags binds sweepd's six flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	var c config
	fs.StringVar(&c.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&c.out, "out", "results", "sweep output directory to serve (reports, series, manifest.json, timings.json)")
	fs.StringVar(&c.resultStore, "result-store", "", "directory of the content-addressed unit-result store (empty: no /api/store)")
	fs.StringVar(&c.benchDir, "bench-dir", ".", "directory of the committed BENCH_<n>.json snapshots")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful-shutdown deadline: on SIGTERM/SIGINT, in-flight requests get this long to finish")
	fs.BoolVar(&c.debug, "debug", false, "expose net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.out == "" {
		return c, errors.New("empty output directory")
	}
	return c, nil
}
