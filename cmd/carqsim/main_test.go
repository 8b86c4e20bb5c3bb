package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// runMainEnv, when set, makes the test binary run main() with its
// command-line arguments instead of the tests, so a test drives the real
// CLI in a child process.
const runMainEnv = "CARQSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// carqsim runs the CLI with args and returns its stdout; it fails t
// unless the CLI exits 0.
func carqsim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("carqsim %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return string(out)
}

// TestScenarios runs every scenario for one round and checks each prints
// its summary header.
func TestScenarios(t *testing.T) {
	for scen, header := range map[string]string{
		"testbed":  "urban testbed: 1 rounds, 3 cars",
		"highway":  "highway drive-thru: 1 rounds, 3 cars",
		"download": "file download: 220 blocks/car, 3 cars",
		"corridor": "corridor: 2 Infostations 700 m apart, 1 rounds",
	} {
		t.Run(scen, func(t *testing.T) {
			out := carqsim(t, "-scenario", scen, "-rounds", "1")
			if !strings.HasPrefix(out, header) {
				t.Fatalf("output does not start with %q:\n%s", header, out)
			}
		})
	}
}

// TestTraceReadsBack: the testbed's -trace file is JSON Lines that
// trace.ReadJSONL decodes, holding the round's transmissions.
func TestTraceReadsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "round0.jsonl")
	carqsim(t, "-scenario", "testbed", "-rounds", "1", "-trace", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	col, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Tx) == 0 {
		t.Fatal("trace holds no Tx records")
	}
}
