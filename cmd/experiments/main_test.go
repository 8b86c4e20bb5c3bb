package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestCatalogueRegistered checks that every study of the paper's
// evaluation is registered in the expected `-exp all` order.
func TestCatalogueRegistered(t *testing.T) {
	want := []string{
		"table1", "batch", "selection", "apretx", "platoon", "download",
		"bitrate", "epidemic", "highway", "combining", "adaptive",
		"corridor", "ttl", "dynamics", "twoway", "trafficgrid", "stopgo",
		"cityscale", "citydemand",
	}
	names := harness.Names()
	byName := map[string]bool{}
	for _, n := range names {
		byName[n] = true
	}
	for _, w := range want {
		if !byName[w] {
			t.Fatalf("experiment %q not registered (have %v)", w, names)
		}
	}
	// The seed monolith's fixed order must be preserved as a prefix of
	// the registration order (test-only registrations may follow).
	idx := map[string]int{}
	for i, n := range names {
		idx[n] = i
	}
	for i := 1; i < len(want); i++ {
		if idx[want[i-1]] > idx[want[i]] {
			t.Fatalf("order: %s after %s", want[i-1], want[i])
		}
	}
	if !slices.ContainsFunc(harness.Experiments(), func(e *harness.Experiment) bool {
		return slices.Contains(e.Aliases, "figures")
	}) {
		t.Fatal("alias figures not registered")
	}
}

// TestListCatalogue is the -list smoke test: the catalogue must name every
// registered study with its A<n> identifier and one-line description, so
// `experiments -list` is a usable index of the evaluation.
func TestListCatalogue(t *testing.T) {
	var buf strings.Builder
	printCatalogue(&buf)
	out := buf.String()
	for _, name := range harness.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("catalogue misses study %q:\n%s", name, out)
		}
	}
	// Studies A1..A18 carry their identifier in the title.
	for i := 1; i <= 18; i++ {
		id := fmt.Sprintf("A%d:", i)
		if !strings.Contains(out, id) {
			t.Errorf("catalogue misses %s", id)
		}
	}
	if !strings.Contains(out, "figures") {
		t.Error("catalogue misses the figures alias")
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "  ") && len(strings.Fields(line)) < 2 {
			t.Errorf("catalogue entry without description: %q", line)
		}
	}
}

// TestHarnessSmoke runs one tiny experiment end-to-end into a temp dir
// and checks the report, the .dat series and the manifest all exist and
// parse — the full write path of the harness.
func TestHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	dir := t.TempDir()
	runner, err := harness.NewRunner(harness.Options{
		Rounds: 2,
		Seed:   1,
		OutDir: dir,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run([]string{"table1"}); err != nil {
		t.Fatal(err)
	}

	report, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "car") {
		t.Fatalf("table1.txt does not look like the report:\n%s", report)
	}

	dat, err := os.ReadFile(filepath.Join(dir, "fig3.dat"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(dat)), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if len(strings.Fields(line)) < 2 {
			t.Fatalf("fig3.dat line %q is not gnuplot columns", line)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := harness.ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Experiments) != 1 || m.Experiments[0].Name != "table1" {
		t.Fatalf("manifest experiments = %+v", m.Experiments)
	}
	rec := m.Experiments[0]
	if rec.Units != 2 {
		t.Fatalf("units = %d, want one per round", rec.Units)
	}
	if rec.Error != "" {
		t.Fatalf("recorded error: %s", rec.Error)
	}
	for _, out := range rec.Outputs {
		if _, err := os.Stat(filepath.Join(dir, out.File)); err != nil {
			t.Fatalf("manifest lists %s but: %v", out.File, err)
		}
	}
	if len(rec.Outputs) < 10 {
		t.Fatalf("only %d outputs recorded", len(rec.Outputs))
	}
}

// TestWorkerCountInvariance is the CLI-level determinism check: the same
// experiment with 1 and 3 workers must produce byte-identical outputs.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	run := func(workers int) map[string]string {
		dir := t.TempDir()
		runner, err := harness.NewRunner(harness.Options{
			Rounds: 2, Seed: 5, OutDir: dir, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.Run([]string{"highway"}); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == "timings.json" {
				continue // the provenance sidecar holds wall-clock timings
			}
			// manifest.json stays in: since the schema-2 split it is a
			// pure function of the run's inputs, worker count included.
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(data)
		}
		return out
	}
	serial := run(1)
	parallel := run(3)
	if len(serial) == 0 {
		t.Fatal("no outputs")
	}
	for name, want := range serial {
		if got, ok := parallel[name]; !ok {
			t.Errorf("%s missing from parallel run", name)
		} else if got != want {
			t.Errorf("%s differs between 1 and 3 workers", name)
		}
	}
}

// TestTrafficStoreFlagIgnored: -traffic-store only creates its
// directory. A traffic sweep run with it leaves the directory empty and
// writes the manifest of the same sweep run without it, byte for byte.
func TestTrafficStoreFlagIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	manifest := func(extra ...string) []byte {
		out := t.TempDir()
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		args := append([]string{"-exp", "stopgo", "-rounds", "1", "-seed", "1", "-out", out}, extra...)
		if err := runArgs(fs, args); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(out, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := filepath.Join(t.TempDir(), "traffic")
	with := manifest("-traffic-store", dir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("-traffic-store did not create its directory: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("-traffic-store directory holds %d entries, want none", len(ents))
	}
	if without := manifest(); !bytes.Equal(with, without) {
		t.Fatal("-traffic-store changed manifest.json")
	}
}
