package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

// isoState is shared between the registered isolation probes and the
// test driving them: registration is process-global, so per-run state
// lives here and is reset before each run.
var isoState struct {
	mu   sync.Mutex
	done map[string]bool
}

func isoReset() {
	isoState.mu.Lock()
	isoState.done = make(map[string]bool)
	isoState.mu.Unlock()
}

func isoMark(label string) {
	isoState.mu.Lock()
	isoState.done[label] = true
	isoState.mu.Unlock()
}

func isoDone() map[string]bool {
	isoState.mu.Lock()
	defer isoState.mu.Unlock()
	out := make(map[string]bool, len(isoState.done))
	for k, v := range isoState.done {
		out[k] = v
	}
	return out
}

func registerIsolationProbes() {
	registerOnce(Experiment{
		Name:  "fault-iso-bad",
		Title: "three units, one armed to panic",
		Run: func(c *Context) error {
			units := make([]Unit, 3)
			for i := range units {
				i := i
				units[i] = Unit{Scenario: "iso", Point: "p", Round: i, Run: func() error {
					isoMark(units[i].Scenario + string(rune('0'+i)))
					return nil
				}}
			}
			if err := c.RunUnits(units); err != nil {
				return err
			}
			return c.Emit("bad.txt", OutputRaw, "only on success\n")
		},
	})
	registerOnce(Experiment{
		Name:  "fault-iso-sib",
		Title: "clean sibling experiment",
		Run: func(c *Context) error {
			if err := c.RunUnits([]Unit{
				{Scenario: "sib", Point: "p", Round: 0, Run: func() error {
					isoMark("sib0")
					return nil
				}},
			}); err != nil {
				return err
			}
			return c.Emit("sib.txt", OutputRaw, "sibling survived\n")
		},
	})
}

// TestUnitPanicIsolation is the panic-isolation contract end to end: a
// unit armed to panic fails alone (after its retry), its sibling units
// and sibling experiments complete and emit, the sweep returns a
// nonzero aggregate error, the stack is recorded in the timings
// sidecar, and the manifest — including the recorded error — is
// byte-identical at -workers 1 and -workers 4.
func TestUnitPanicIsolation(t *testing.T) {
	registerIsolationProbes()
	t.Cleanup(faultpoint.DisarmAll)

	run := func(workers int) (manifest, sib []byte, tims *Timings, err error) {
		faultpoint.New("harness.unit").MustArm(faultpoint.Spec{
			Action: faultpoint.ActPanic, Key: "iso/p round 1",
		})
		defer faultpoint.DisarmAll()
		isoReset()
		dir := t.TempDir()
		r, rerr := NewRunner(Options{
			Rounds: 1, Seed: 7, OutDir: dir, Workers: workers,
			Now: func() time.Time { return time.Unix(1000000000, 0) },
		})
		if rerr != nil {
			t.Fatal(rerr)
		}
		err = r.Run([]string{"fault-iso-bad", "fault-iso-sib"})
		done := isoDone()
		for _, want := range []string{"iso0", "iso2", "sib0"} {
			if !done[want] {
				t.Fatalf("workers=%d: unit %s did not run (done: %v)", workers, want, done)
			}
		}
		if done["iso1"] {
			t.Fatalf("workers=%d: the armed unit's body ran", workers)
		}
		manifest, rerr = os.ReadFile(filepath.Join(dir, "manifest.json"))
		if rerr != nil {
			t.Fatal(rerr)
		}
		sib, rerr = os.ReadFile(filepath.Join(dir, "sib.txt"))
		if rerr != nil {
			t.Fatalf("workers=%d: sibling output missing: %v", workers, rerr)
		}
		if _, serr := os.Stat(filepath.Join(dir, "bad.txt")); serr == nil {
			t.Fatalf("workers=%d: failed experiment emitted its output", workers)
		}
		return manifest, sib, r.timings, err
	}

	m1, sib1, tims, err := run(1)
	if err == nil {
		t.Fatal("sweep with a panicking unit returned nil")
	}
	for _, want := range []string{"fault-iso-bad", "iso/p round 1", "injected panic"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregate error %q does not name %q", err, want)
		}
	}
	var bad *ExperimentTiming
	for _, et := range tims.Experiments {
		if et.Name == "fault-iso-bad" {
			bad = et
		}
	}
	if bad == nil || len(bad.Failed) != 1 {
		t.Fatalf("timings failure list = %+v, want exactly one entry", bad)
	}
	f := bad.Failed[0]
	if f.Unit != "iso/p round 1" || f.Attempts != 2 {
		t.Fatalf("failed unit = %+v, want iso/p round 1 after 2 attempts", f)
	}
	if !strings.Contains(f.Stack, "faultpoint") {
		t.Fatalf("recorded stack does not reach the panic site:\n%s", f.Stack)
	}
	if bad.Retries != 1 {
		t.Fatalf("retries = %d, want 1", bad.Retries)
	}

	m4, sib4, _, err4 := run(4)
	if err4 == nil {
		t.Fatal("workers=4 sweep returned nil")
	}
	if !bytes.Equal(m1, m4) {
		t.Fatalf("manifest differs across worker counts:\n%s\nvs\n%s", m1, m4)
	}
	if !bytes.Equal(sib1, sib4) {
		t.Fatal("surviving outputs differ across worker counts")
	}
}

// TestUnitRetryRecovers: a fault capped at one fire makes the first
// attempt panic and the retry succeed — the unit recovers, the sweep
// stays green, and the retry is counted.
func TestUnitRetryRecovers(t *testing.T) {
	registerIsolationProbes()
	t.Cleanup(faultpoint.DisarmAll)
	faultpoint.New("harness.unit").MustArm(faultpoint.Spec{
		Action: faultpoint.ActPanic, Key: "iso/p round 1", Count: 1,
	})
	isoReset()
	r, err := NewRunner(Options{Rounds: 1, Seed: 7, OutDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run([]string{"fault-iso-bad"}); err != nil {
		t.Fatalf("retry did not recover the unit: %v", err)
	}
	tim := r.timings.Experiments[0]
	if tim.Retries != 1 || len(tim.Failed) != 0 {
		t.Fatalf("retries/failed = %d/%d, want 1/0", tim.Retries, len(tim.Failed))
	}
	if !isoDone()["iso1"] {
		t.Fatal("retried unit's body never ran")
	}
}

// TestUnitWatchdogFlagsWithoutKilling: a unit outliving -unit-timeout
// lands in the timings hung list while the sweep still succeeds.
func TestUnitWatchdogFlagsWithoutKilling(t *testing.T) {
	registerOnce(Experiment{
		Name:  "fault-watchdog-probe",
		Title: "one deliberately slow unit",
		Run: func(c *Context) error {
			return c.RunUnits([]Unit{
				{Scenario: "slow", Point: "p", Round: 0, Run: func() error {
					time.Sleep(60 * time.Millisecond)
					return nil
				}},
			})
		},
	})
	r, err := NewRunner(Options{
		Rounds: 1, Seed: 7, OutDir: t.TempDir(), Workers: 1,
		UnitTimeout: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run([]string{"fault-watchdog-probe"}); err != nil {
		t.Fatalf("watchdog killed the sweep: %v", err)
	}
	tim := r.timings.Experiments[0]
	if len(tim.Hung) != 1 || tim.Hung[0] != "slow/p round 0" {
		t.Fatalf("hung list = %v, want [slow/p round 0]", tim.Hung)
	}
	if len(tim.Failed) != 0 {
		t.Fatalf("watchdog marked the unit failed: %+v", tim.Failed)
	}
}

// TestRunContinuesPastFailedExperiment: experiment-level isolation — a
// failing experiment is recorded and its siblings still run.
func TestRunContinuesPastFailedExperiment(t *testing.T) {
	registerIsolationProbes()
	t.Cleanup(faultpoint.DisarmAll)
	faultpoint.New("harness.unit").MustArm(faultpoint.Spec{
		Action: faultpoint.ActError, Msg: "disk on fire", Key: "iso/p round 0",
	})
	isoReset()
	dir := t.TempDir()
	r, err := NewRunner(Options{Rounds: 1, Seed: 7, OutDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = r.Run([]string{"fault-iso-bad", "fault-iso-sib"})
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("aggregate error = %v, want the injected failure", err)
	}
	if !isoDone()["sib0"] {
		t.Fatal("sibling experiment did not run after the failure")
	}
	m, err2 := readManifest(filepath.Join(dir, "manifest.json"))
	if err2 != nil {
		t.Fatal(err2)
	}
	if len(m.Experiments) != 2 {
		t.Fatalf("manifest records %d experiments, want 2", len(m.Experiments))
	}
	if m.Experiments[0].Error == "" || m.Experiments[1].Error != "" {
		t.Fatalf("manifest errors = %q / %q, want only the first set",
			m.Experiments[0].Error, m.Experiments[1].Error)
	}
}
