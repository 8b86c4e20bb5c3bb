package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestFlagSurface pins sweepd's command line to the six flags it reads.
// Sweep-only flags (-rounds, -seed, -workers, -faultpoints, ...) must be
// unknown: binding them let invalid values stop the server from starting
// and let valid ones be silently ignored.
func TestFlagSurface(t *testing.T) {
	fs := newFlagSet()
	cfg, err := parseFlags(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addr", "bench-dir", "debug", "drain", "out", "result-store"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags = %v, want %v", names, want)
	}
	defaults := config{addr: ":8080", out: "results", benchDir: ".", drain: 10 * time.Second}
	if cfg != defaults {
		t.Fatalf("defaults = %+v, want %+v", cfg, defaults)
	}

	for _, args := range [][]string{
		{"-rounds", "0"},
		{"-traffic-store-cap", "-1"},
		{"-faultpoints", "harness.unit=panic"},
		{"-traffic-store", "dir"},
		{"-metrics=false"},
	} {
		if _, err := parseFlags(newFlagSet(), args); err == nil {
			t.Errorf("%v accepted, want unknown flag", args)
		}
	}

	cfg, err = parseFlags(newFlagSet(), []string{"-out", "dir", "-result-store", "store", "-debug"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.out != "dir" || cfg.resultStore != "store" || !cfg.debug {
		t.Fatalf("parsed %+v", cfg)
	}
	if _, err := parseFlags(newFlagSet(), []string{"-out", ""}); err == nil {
		t.Fatal("empty output directory accepted")
	}
}
