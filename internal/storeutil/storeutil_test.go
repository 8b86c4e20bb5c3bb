package storeutil

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestQuarantineMovesAside(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.jsonl")
	if err := os.WriteFile(path, []byte("bad bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := quarantine(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("original still present after quarantine")
	}
	got, err := os.ReadFile(path + QuarantineSuffix)
	if err != nil || string(got) != "bad bytes" {
		t.Fatalf("quarantined copy = %q, %v", got, err)
	}
	// A second quarantine of the same path replaces the post-mortem copy.
	if err := os.WriteFile(path, []byte("worse bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := quarantine(path); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path + QuarantineSuffix)
	if string(got) != "worse bytes" {
		t.Fatalf("second quarantine kept stale copy: %q", got)
	}
}

func TestCleanStaleTempsAgeGate(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".unit-123.tmp")
	fresh := filepath.Join(dir, ".unit-456.tmp")
	other := filepath.Join(dir, "entry.unit.jsonl")
	for _, p := range []string{stale, fresh, other} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(other, old, old); err != nil {
		t.Fatal(err)
	}
	if n := cleanStaleTemps(dir, ".unit-", ".tmp", time.Hour); n != 1 {
		t.Fatalf("removed %d files, want 1", n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp survived")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp (a live writer's) was removed")
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatal("a store entry was removed")
	}
}

func TestCleanStaleTempsMissingDir(t *testing.T) {
	if n := cleanStaleTemps(filepath.Join(t.TempDir(), "nope"), ".x-", ".tmp", time.Hour); n != 0 {
		t.Fatalf("missing dir removed %d", n)
	}
}
