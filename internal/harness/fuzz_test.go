package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadManifest feeds arbitrary bytes to readManifest as a sweep
// directory's manifest.json, the file sweepd reads from disk. Reading
// must never panic; an accepted manifest must hold no null record
// (sweepd walks every one), only plain output file names (sweepd joins
// them onto the output directory), and must re-encode stably. The seed
// corpus (testdata/fuzz/FuzzReadManifest) holds real manifests,
// truncations and null records; the seeds below add traversing names.
func FuzzReadManifest(f *testing.F) {
	for _, name := range []string{"../x", "a/b", ".hidden", "fig3.dat"} {
		f.Add([]byte(`{"schema":2,"experiments":[{"name":"e","outputs":[{"file":"` + name + `","kind":"raw"}]}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		m, err := readManifest(writeFuzzFile(t, dir, data))
		if err != nil {
			return
		}
		for _, e := range m.Experiments {
			if e == nil {
				t.Fatal("accepted a null experiment")
			}
			for _, p := range e.Points {
				if p == nil {
					t.Fatal("accepted a null point")
				}
			}
			for _, o := range e.Outputs {
				if o == nil {
					t.Fatal("accepted a null output")
				}
				if o.File == "" || o.File != filepath.Base(o.File) || !filepath.IsLocal(o.File) || strings.HasPrefix(o.File, ".") {
					t.Fatalf("accepted output name %q, which is not a plain file name", o.File)
				}
			}
		}
		reencodeStable(t, dir, m.write, func(path string) (func(string) error, error) {
			m, err := readManifest(path)
			if err != nil {
				return nil, err
			}
			return m.write, nil
		})
	})
}

// FuzzReadTimings is FuzzReadManifest for the timings.json sidecar,
// which sweepd's progress view reads beside the manifest.
func FuzzReadTimings(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		tim, err := ReadTimings(writeFuzzFile(t, dir, data))
		if err != nil {
			return
		}
		for _, e := range tim.Experiments {
			if e == nil {
				t.Fatal("accepted a null experiment")
			}
			for _, u := range e.Failed {
				if u == nil {
					t.Fatal("accepted a null failed unit")
				}
			}
		}
		reencodeStable(t, dir, tim.write, func(path string) (func(string) error, error) {
			tim, err := ReadTimings(path)
			if err != nil {
				return nil, err
			}
			return tim.write, nil
		})
	})
}

func writeFuzzFile(t *testing.T, dir string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, "input.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// reencodeStable writes an accepted value, reads the file back with
// reread and writes that again: both writes must succeed and agree byte
// for byte.
func reencodeStable(t *testing.T, dir string, write func(string) error,
	reread func(string) (func(string) error, error)) {
	t.Helper()
	first, second := filepath.Join(dir, "first.json"), filepath.Join(dir, "second.json")
	if err := write(first); err != nil {
		t.Fatalf("accepted value does not re-encode: %v", err)
	}
	writeAgain, err := reread(first)
	if err != nil {
		t.Fatalf("re-encoded value does not read back: %v", err)
	}
	if err := writeAgain(second); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-encoding is unstable:\n%s\nvs\n%s", a, b)
	}
}
