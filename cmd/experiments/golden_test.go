package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// update regenerates the committed goldens instead of checking them:
// go test ./cmd/experiments -run TestGolden -update.
var update = flag.Bool("update", false, "rewrite testdata/golden from this run")

// TestGoldenPaperOutputs pins the paper's own studies: the SHA-256 of the
// manifest of `-exp table1 -rounds 4 -seed 1` (Table 1 and Figures 2-8)
// and of `-exp cityscale -rounds 1 -seed 1`, plus the whole catalogue at
// `-exp all -rounds 1 -seed 1`. The manifest lists every output file
// with its content hash, so any change to a table, a figure or a series
// fails here until the golden file is deliberately regenerated with
// -update and the diff reviewed.
func TestGoldenPaperOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	for _, tc := range []struct {
		name, exp string
		rounds    int
	}{
		{"table1", "table1", 4},
		{"cityscale", "cityscale", 1},
		{"all", "all", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := runStudies(t, tc.exp, tc.rounds)
			manifest, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(manifest)
			got := hex.EncodeToString(sum[:])

			golden := filepath.Join("testdata", "golden", tc.name+".sha256")
			if *update {
				writeGolden(t, golden, got+"\n")
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if w := strings.TrimSpace(string(want)); got != w {
				t.Fatalf("-exp %s -rounds %d -seed 1 manifest sha256 = %s, golden %s\n"+
					"the paper outputs changed; if intended, regenerate with -update and review the diff",
					tc.exp, tc.rounds, got, w)
			}
		})
	}
}

// goldenTable1Rounds is the round count of the Table 1 text golden.
const goldenTable1Rounds = 4

// TestGoldenTable1Text pins Table 1 and Figures 3-8 of `-exp table1
// -rounds 4 -seed 1` as committed text under testdata/golden/table1, so
// a drift shows as a readable diff of the paper's numbers rather than a
// changed hash. summary.txt adds each car's mean loss before and after
// cooperation and the share recovered. The run takes well under a
// second, so unlike the manifest hashes it also gates the -short suite.
func TestGoldenTable1Text(t *testing.T) {
	dir := runStudies(t, "table1", goldenTable1Rounds)
	files := []string{"table1.txt"}
	for fig := 3; fig <= 8; fig++ {
		files = append(files, fmt.Sprintf("fig%d.txt", fig), fmt.Sprintf("fig%d.dat", fig))
	}
	got := map[string]string{}
	for _, name := range files {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got[name] = string(b)
	}
	got["summary.txt"] = table1Summary(t, got["table1.txt"])
	files = append(files, "summary.txt")

	goldenDir := filepath.Join("testdata", "golden", "table1")
	for _, name := range files {
		path := filepath.Join(goldenDir, name)
		if *update {
			writeGolden(t, path, got[name])
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v (run with -update to create it)", err)
			continue
		}
		if diff := firstDiffs(got[name], string(want), 5); diff != "" {
			t.Errorf("%s differs from its golden (regenerate with -update if intended and review the diff):\n%s",
				path, diff)
		}
	}
}

// table1Summary reruns the canonical testbed behind `-exp table1` and
// renders each car's mean loss before and after cooperation and the
// share of losses recovered. It fails t unless the rerun's Table 1 is
// the study's own (emitted), cooperation never adds loss, and every
// recovered share lies in [0, 1].
func table1Summary(t *testing.T, emitted string) string {
	t.Helper()
	// The study's one unit as the harness stamps it: the run's seed and
	// the point label as the sweep arm.
	cfg := scenario.DefaultTestbed()
	cfg.Rounds, cfg.Seed, cfg.Arm = goldenTable1Rounds, 1, "canonical"
	cfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([]scenario.Round, cfg.Rounds)
	for r := range rounds {
		if rounds[r], err = cfg.Round(r, &trace.Collector{}); err != nil {
			t.Fatal(err)
		}
	}
	res := cfg.Result(rounds)
	if report.Table1(res) != emitted {
		t.Fatal("the rerun testbed's Table 1 differs from the study's table1.txt")
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Per-car mean packets lost per round, -exp table1 -rounds %d -seed 1\n\n", goldenTable1Rounds)
	fmt.Fprintf(&b, "%-4s %12s %12s %10s\n", "car", "lost before", "lost after", "recovered")
	for _, r := range report.Table1Rows(res) {
		before, after, share := r.LostBefore.Mean(), r.LostAfter.Mean(), r.Improvement()
		if after > before {
			t.Errorf("car %v: %.2f lost after cooperation, more than the %.2f before", r.Car, after, before)
		}
		if share < 0 || share > 1 {
			t.Errorf("car %v: recovered share %v outside [0, 1]", r.Car, share)
		}
		fmt.Fprintf(&b, "%-4v %12.2f %12.2f %10.3f\n", r.Car, before, after, share)
	}
	return b.String()
}

// runStudies runs `-exp exp -rounds rounds -seed 1` into a temporary
// directory and returns it.
func runStudies(t *testing.T, exp string, rounds int) string {
	t.Helper()
	dir := t.TempDir()
	opts := harness.DefaultOptions()
	opts.Rounds, opts.Seed, opts.OutDir = rounds, 1, dir
	runner, err := harness.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{exp}
	if exp == "all" {
		names = harness.Names()
	}
	if err := runner.Run(names); err != nil {
		t.Fatal(err)
	}
	return dir
}

// writeGolden writes one golden file, creating its directory.
func writeGolden(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// firstDiffs returns up to max differing lines of got against want, each
// as its line number with both versions; "" when they are equal.
func firstDiffs(got, want string, max int) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl == wl {
			continue
		}
		if shown == max {
			b.WriteString("  ...\n")
			break
		}
		fmt.Fprintf(&b, "  line %d:\n    got:  %q\n    want: %q\n", i+1, gl, wl)
		shown++
	}
	if len(g) != len(w) {
		fmt.Fprintf(&b, "  got %d lines, want %d\n", len(g), len(w))
	}
	return b.String()
}
