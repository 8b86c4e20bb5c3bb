package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// readManifest loads a manifest written by (*Manifest).write.
func readManifest(path string) (*Manifest, error) {
	return readParsed(path, ParseManifest)
}

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
	if err := old.write(path); err != nil {
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
	if err := next.write(path); err != nil {
		t.Fatal(err)
	}
	held, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, oldBytes) {
		t.Fatalf("open reader saw %q after the rewrite, want the old %q", held, oldBytes)
	}
	m, err := readManifest(path)
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

// TestParseManifestRejectsUnsafeOutputNames: a manifest is outside
// input to its readers, and sweepd joins each output name onto the
// output directory, so ParseManifest refuses every name Context.Emit
// refuses (one shared check) and accepts the names Emit writes.
func TestParseManifestRejectsUnsafeOutputNames(t *testing.T) {
	manifest := func(file string) []byte {
		return []byte(`{"schema":2,"experiments":[{"name":"e","outputs":[{"file":` +
			strconv.Quote(file) + `,"kind":"raw"}]}]}`)
	}
	c := &Context{runner: newTestRunner(t, 1), rec: &ExperimentRecord{}}
	for _, name := range []string{"", ".", "..", "../x", "../../etc/passwd", "/etc/passwd", "a/b", "sub/../x", ".hidden", ".x.tmp"} {
		if m, err := ParseManifest(manifest(name)); err == nil {
			t.Errorf("ParseManifest accepted output name %q: %+v", name, m.Experiments[0].Outputs[0])
		}
		if err := c.Emit(name, OutputRaw, "x"); err == nil {
			t.Errorf("Emit accepted output name %q", name)
		}
	}
	for _, name := range []string{"fig3.dat", "table1.txt", "a..b", "x.svg"} {
		m, err := ParseManifest(manifest(name))
		if err != nil {
			t.Fatalf("ParseManifest rejected plain name %q: %v", name, err)
		}
		if got := m.Experiments[0].Outputs[0].File; got != name {
			t.Fatalf("output name %q parsed as %q", name, got)
		}
		if err := c.Emit(name, OutputRaw, "x"); err != nil {
			t.Fatalf("Emit rejected plain name %q: %v", name, err)
		}
	}
}
