package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/packet"
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

// run runs the CLI with args in a child process.
func run(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	return string(out), errBuf.String(), err
}

// carqsim runs the CLI with args and returns its stdout; it fails t
// unless the CLI exits 0.
func carqsim(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, err := run(args...)
	if err != nil {
		t.Fatalf("carqsim %v: %v\nstderr:\n%s", args, err, stderr)
	}
	return out
}

// carqsimFails runs the CLI with args, fails t if it exits 0, and
// returns its stderr.
func carqsimFails(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, err := run(args...)
	if err == nil {
		t.Fatalf("carqsim %v exited 0; want a failure\nstdout:\n%s", args, out)
	}
	return stderr
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
// trace.ReadJSONL decodes, holding the round's full record: its
// transmissions, its drops and its receptions of every frame type. The
// stores keep only the study view of a round; the exported trace keeps
// everything carqtrace reports on.
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
	if len(col.Drops) == 0 {
		t.Fatal("trace holds no drop records")
	}
	heard := map[packet.Type]int{}
	for _, r := range col.Rx {
		heard[r.Type]++
	}
	for _, typ := range []packet.Type{packet.TypeData, packet.TypeHello, packet.TypeRequest, packet.TypeResponse} {
		if heard[typ] == 0 {
			t.Fatalf("trace holds no %v reception (receptions by type: %v)", typ, heard)
		}
	}
}

// TestTraceRefusedOutsideTestbed: only the testbed records a trace, so
// -trace with any other scenario exits non-zero with a message and
// writes no file, instead of silently doing nothing.
func TestTraceRefusedOutsideTestbed(t *testing.T) {
	for _, scen := range []string{"highway", "download", "corridor"} {
		t.Run(scen, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "round0.jsonl")
			stderr := carqsimFails(t, "-scenario", scen, "-rounds", "1", "-trace", path)
			if !strings.Contains(stderr, "-trace") || !strings.Contains(stderr, scen) {
				t.Fatalf("stderr does not explain the refusal:\n%s", stderr)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("refused run left a trace file (stat: %v)", err)
			}
		})
	}
}
