package harness

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// TestOptionsFlagSurface pins the sweep flags Options.Bind registers, as
// cmd/sweepd's TestFlagSurface pins the server's: a new sweep knob shows
// up here as a reviewed diff, and a deleted one must parse as unknown.
func TestOptionsFlagSurface(t *testing.T) {
	newFlagSet := func() *flag.FlagSet {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		opts := DefaultOptions()
		opts.Bind(fs)
		return fs
	}
	var names []string
	newFlagSet().VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{
		"code-digest", "faultpoints", "metrics", "out", "result-store",
		"rounds", "seed", "unit-timeout", "workers",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags = %v, want %v", names, want)
	}
	for _, args := range [][]string{{"-traffic-store-cap", "1"}, {"-traffic-store", "dir"}} {
		if err := newFlagSet().Parse(args); err == nil {
			t.Errorf("%v accepted, want unknown flag", args)
		}
	}
}
