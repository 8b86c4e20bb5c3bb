package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteManifestReplacesAtomically: a reader holding the old
// manifest.json open (sweepd, serving a directory a sweep is writing)
// still reads the complete old bytes after a rewrite, the path then
// holds the complete new manifest with os.WriteFile's mode, and no temp
// file is left behind, not even one a crashed earlier write left.
func TestWriteManifestReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	old := &Manifest{Schema: ManifestSchema, Seed: 1, Rounds: 2,
		Experiments: []*ExperimentRecord{{Name: "table1", Title: "Table 1"}}}
	if err := old.WriteManifest(path); err != nil {
		t.Fatal(err)
	}
	oldBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A temp left by a write that crashed before its rename.
	if err := os.WriteFile(filepath.Join(dir, ".manifest.json.tmp"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	next := &Manifest{Schema: ManifestSchema, Seed: 2, Rounds: 3}
	if err := next.WriteManifest(path); err != nil {
		t.Fatal(err)
	}
	held, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, oldBytes) {
		t.Fatalf("open reader saw %q after the rewrite, want the old %q", held, oldBytes)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 2 || m.Rounds != 3 || len(m.Experiments) != 0 {
		t.Fatalf("rewritten manifest = %+v", m)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only manifest.json", names)
	}
	ref := filepath.Join(t.TempDir(), "ref")
	if err := os.WriteFile(ref, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Fatalf("manifest.json mode %v, want os.WriteFile's %v", got.Mode(), want.Mode())
	}
}
