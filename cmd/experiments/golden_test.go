package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// update regenerates the committed golden hashes instead of checking
// them: go test ./cmd/experiments -run TestGolden -update.
var update = flag.Bool("update", false, "rewrite testdata/golden/*.sha256 from this run")

// TestGoldenPaperOutputs pins the paper's own studies: the SHA-256 of the
// manifest of `-exp table1 -rounds 4 -seed 1` (Table 1 and Figures 2-8)
// and of `-exp cityscale -rounds 1 -seed 1`, plus the whole catalogue at
// `-exp all -rounds 1 -seed 1`. The manifest lists every
// output file with its content hash, so any change to a table, a figure
// or a series fails here until the golden file is deliberately
// regenerated with -update and the diff reviewed.
func TestGoldenPaperOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	for _, tc := range []struct {
		exp    string
		rounds int
	}{
		{"table1", 4},
		{"cityscale", 1},
		{"all", 1},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			dir := t.TempDir()
			opts := harness.DefaultOptions()
			opts.Rounds, opts.Seed, opts.OutDir = tc.rounds, 1, dir
			runner, err := harness.NewRunner(opts)
			if err != nil {
				t.Fatal(err)
			}
			names := []string{tc.exp}
			if tc.exp == "all" {
				names = harness.Names()
			}
			if err := runner.Run(names); err != nil {
				t.Fatal(err)
			}
			manifest, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(manifest)
			got := hex.EncodeToString(sum[:])

			golden := filepath.Join("testdata", "golden", tc.exp+".sha256")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
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
