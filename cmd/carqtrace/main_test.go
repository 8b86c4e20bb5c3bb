package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/packet"
)

// runMainEnv, when set, makes the test binary run main() with its
// command-line arguments instead of the tests, so a test drives the real
// CLI in a child process.
const runMainEnv = "CARQTRACE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDropBreakdownFromCarqsimTrace: carqtrace reads the round-0 trace
// carqsim -trace writes and reports a non-empty drop breakdown, so the
// exported trace still holds what the result store's study view leaves
// out. It needs the go command to run carqsim.
func TestDropBreakdownFromCarqsimTrace(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to run carqsim")
	}
	path := filepath.Join(t.TempDir(), "round0.jsonl")
	sim := exec.Command(goTool, "run", "../carqsim", "-scenario", "testbed", "-rounds", "1", "-trace", path)
	if out, err := sim.CombinedOutput(); err != nil {
		t.Fatalf("carqsim: %v\n%s", err, out)
	}
	cmd := exec.Command(os.Args[0], path)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("carqtrace: %v\n%s", err, out)
	}
	_, breakdown, ok := strings.Cut(string(out), "drop breakdown:\n")
	breakdown, _, _ = strings.Cut(breakdown, "\n\n")
	if !ok || strings.TrimSpace(breakdown) == "" {
		t.Fatalf("no drop breakdown in carqtrace's report:\n%s", out)
	}
}

func TestParseCars(t *testing.T) {
	tests := []struct {
		in      string
		want    []packet.NodeID
		wantErr bool
	}{
		{"1,2,3", []packet.NodeID{1, 2, 3}, false},
		{" 1 , 2 ", []packet.NodeID{1, 2}, false},
		{"7", []packet.NodeID{7}, false},
		{"1,,2", []packet.NodeID{1, 2}, false},
		{"", nil, true},
		{"x", nil, true},
		{"70000", nil, true}, // exceeds uint16
		{"-1", nil, true},
	}
	for _, tt := range tests {
		got, err := parseCars(tt.in)
		if (err != nil) != tt.wantErr {
			t.Fatalf("parseCars(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, tt.want) {
			t.Fatalf("parseCars(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := pct(1, 4); got != 25 {
		t.Fatalf("pct(1,4) = %v", got)
	}
	if got := pct(3, 0); got != 0 {
		t.Fatalf("pct(3,0) = %v, want 0 guard", got)
	}
}
