// Package harness orchestrates the experiment catalogue. It provides a
// declarative registry of studies, a worker pool that decomposes each
// study into independent (scenario, parameter-point, round) work units
// with deterministic per-unit RNG seeds, and a machine-readable manifest
// recording what a run produced.
//
// Determinism contract: a unit's simulation seed depends only on the root
// seed and the unit's identity (never on scheduling), and every reduce
// step consumes unit results in submission order. A run with N workers is
// therefore byte-identical to a run with 1 worker.
package harness

import (
	"fmt"
	"sort"
	"sync"
)

// Experiment is one registered study: a stable CLI name, a one-line
// title for the catalogue, and the run body.
type Experiment struct {
	// Name is the primary CLI name, e.g. "table1".
	Name string
	// Title is the one-line catalogue description.
	Title string
	// Aliases are alternative CLI names resolving to this experiment.
	Aliases []string
	// Run executes the study against a per-experiment context.
	Run func(*Context) error
}

var registry = struct {
	sync.Mutex
	order  []*Experiment
	byName map[string]*Experiment
}{byName: make(map[string]*Experiment)}

// Register adds an experiment to the catalogue. Names and aliases must be
// unique; registration order defines the "all" execution order.
func Register(e Experiment) {
	if e.Name == "" {
		panic("harness: experiment with empty name")
	}
	if e.Run == nil {
		panic(fmt.Sprintf("harness: experiment %q has no Run", e.Name))
	}
	registry.Lock()
	defer registry.Unlock()
	exp := &e
	for _, name := range append([]string{e.Name}, e.Aliases...) {
		if _, dup := registry.byName[name]; dup {
			panic(fmt.Sprintf("harness: duplicate experiment name %q", name))
		}
		registry.byName[name] = exp
	}
	registry.order = append(registry.order, exp)
}

// lookup resolves a CLI name or alias.
func lookup(name string) (*Experiment, bool) {
	registry.Lock()
	defer registry.Unlock()
	e, ok := registry.byName[name]
	return e, ok
}

// Experiments returns the catalogue in registration order.
func Experiments() []*Experiment {
	registry.Lock()
	defer registry.Unlock()
	return append([]*Experiment(nil), registry.order...)
}

// Names returns every registered primary name in registration order.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	names := make([]string, len(registry.order))
	for i, e := range registry.order {
		names[i] = e.Name
	}
	return names
}

// allNames returns every name and alias, sorted, for error messages.
func allNames() []string {
	registry.Lock()
	defer registry.Unlock()
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
