package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current Save output")

// goldenKey is the key of the golden entry and of every fuzz input.
const goldenKey = "golden|seed=1|round=0"

// parentHeader renders a header as the result store wrote it before
// the sectioned header (same key, body and CRC; the old schema and
// fields), the shape a store directory from an older build still holds.
func parentHeader(h header) any {
	return struct {
		Schema     string `json:"schema"`
		Key        string `json:"key"`
		MetaLen    int64  `json:"meta_len"`
		ProtoLen   int64  `json:"proto_len"`
		TrafficLen int64  `json:"traffic_len"`
		BodyCRC    uint32 `json:"body_crc"`
	}{"result-store/1", h.Key, h.Sections[0], h.Sections[1], h.Sections[2], h.BodyCRC}
}

// rewriteHeader returns entry with its header line edited by edit and
// its body untouched.
func rewriteHeader(t *testing.T, entry []byte, edit func(h *header) any) []byte {
	t.Helper()
	nl := bytes.IndexByte(entry, '\n')
	var h header
	if err := json.Unmarshal(entry[:nl], &h); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(edit(&h))
	if err != nil {
		t.Fatal(err)
	}
	return append(append(line, '\n'), entry[nl+1:]...)
}

func mustOpenStore(t *testing.T, dir string) *ResultStore {
	t.Helper()
	st, err := NewResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func temps(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, ".*-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestStoreMatrix runs the corruption, torn-write and quarantine matrix
// against one result store, then checks the store's accounting:
// every Load is one hit or one miss, and every quarantine left exactly
// one post-mortem file.
func TestStoreMatrix(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	dir := t.TempDir()
	st := mustOpenStore(t, dir)
	loads := 0
	load := func(key string) (*UnitResult, error) {
		loads++
		return st.Load(key)
	}
	save := func(t *testing.T, key string, res *UnitResult) {
		t.Helper()
		if err := st.Save(key, res); err != nil {
			t.Fatal(err)
		}
	}
	// wire renders a result as a fresh Save writes it, the canonical form
	// results are compared in.
	scratch := mustOpenStore(t, t.TempDir())
	wire := func(t *testing.T, res *UnitResult) []byte {
		t.Helper()
		if err := scratch.Save("wire", res); err != nil {
			t.Fatal(err)
		}
		return readFile(t, scratch.path("wire"))
	}
	want := wire(t, storeSample())
	expectSample := func(t *testing.T, key string) {
		t.Helper()
		res, err := load(key)
		if err != nil || res == nil {
			t.Fatalf("Load(%q) = (%v, %v), want the sample", key, res, err)
		}
		if !bytes.Equal(wire(t, res), want) {
			t.Fatalf("Load(%q) does not round-trip the sample", key)
		}
	}
	expectMiss := func(t *testing.T, key string) {
		t.Helper()
		if res, err := load(key); res != nil || err != nil {
			t.Fatalf("Load(%q) = (%v, %v), want a clean miss", key, res, err)
		}
	}

	// The torn write runs first: it reopens the store, and the closing
	// identities count from that open.
	t.Run("torn-write", func(t *testing.T) {
		const key = "torn-write"
		faultpoint.New("harness.store.save.write").MustArm(faultpoint.Spec{
			Action: faultpoint.ActShortWrite, Bytes: 10, Key: key,
		})
		err := st.Save(key, storeSample())
		faultpoint.DisarmAll()
		if err == nil || !strings.Contains(err.Error(), "short write") {
			t.Fatalf("faulted Save = %v, want an injected short write", err)
		}
		if _, serr := os.Stat(st.path(key)); !os.IsNotExist(serr) {
			t.Fatal("short write published a partial entry")
		}
		torn := temps(t, dir)
		if len(torn) != 1 || len(readFile(t, torn[0])) != 10 {
			t.Fatalf("torn write left temps %v, want one of the armed 10 bytes", torn)
		}
		// Reopening sweeps temps old enough to be a crashed writer's.
		old := time.Now().Add(-2 * staleTempAge)
		if err := os.Chtimes(torn[0], old, old); err != nil {
			t.Fatal(err)
		}
		st, loads = mustOpenStore(t, dir), 0
		if left := temps(t, dir); len(left) != 0 {
			t.Fatalf("stale temps survived reopen: %v", left)
		}
		expectMiss(t, key)
		save(t, key, storeSample())
		expectSample(t, key)
	})

	t.Run("round-trip", func(t *testing.T) {
		save(t, "round-trip", storeSample())
		expectSample(t, "round-trip")
		if left := temps(t, dir); len(left) != 0 {
			t.Fatalf("Save left temps behind: %v", left)
		}
	})

	t.Run("miss", func(t *testing.T) { expectMiss(t, "never-saved") })

	// An injected load error is a miss that leaves the entry intact.
	t.Run("load-fault", func(t *testing.T) {
		const key = "load-fault"
		save(t, key, storeSample())
		faultpoint.New("harness.store.load").MustArm(faultpoint.Spec{
			Action: faultpoint.ActError, Msg: "injected read failure", Key: key, Count: 1,
		})
		_, err := load(key)
		faultpoint.DisarmAll()
		if err == nil || !strings.Contains(err.Error(), "injected read failure") {
			t.Fatalf("faulted Load = %v", err)
		}
		expectSample(t, key)
	})

	// Every damaged entry is rejected with its named cause, quarantined
	// byte for byte, then reads as a clean miss until the recompute's
	// Save heals it.
	damages := []struct {
		name, cause string
		plant       func(entry []byte) []byte
	}{
		{"empty-file", "truncated header", func([]byte) []byte { return []byte{} }},
		{"truncated-header", "truncated header", func(b []byte) []byte { return b[:10] }},
		{"garbage-header", "header", func(b []byte) []byte {
			return append([]byte("not json at all\n"), b[bytes.IndexByte(b, '\n')+1:]...)
		}},
		{"truncated-body", "truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"flipped-body-byte", "CRC", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)-2] ^= 0x40 // inside the last record line
			return b
		}},
		{"foreign-schema", "schema", func(b []byte) []byte {
			return rewriteHeader(t, b, func(h *header) any { h.Schema += "-foreign"; return h })
		}},
		{"parent-format", "schema", func(b []byte) []byte {
			return rewriteHeader(t, b, func(h *header) any { return parentHeader(*h) })
		}},
		{"key-collision", "key mismatch", func(b []byte) []byte {
			return rewriteHeader(t, b, func(h *header) any { h.Key = "another key"; return h })
		}},
		{"section-count", "sections", func(b []byte) []byte {
			return rewriteHeader(t, b, func(h *header) any { h.Sections = append(h.Sections, -1); return h })
		}},
		{"negative-length", "section length", func(b []byte) []byte {
			return rewriteHeader(t, b, func(h *header) any { h.Sections[0] = -5; return h })
		}},
		// Lengths near MaxInt64 that overflow their sum into agreement
		// with the body size: only the per-section bound catches them.
		{"crafted-overflow", "section length", func(b []byte) []byte {
			return rewriteHeader(t, b, func(h *header) any {
				body := int64(len(b) - bytes.IndexByte(b, '\n') - 1)
				for i := range h.Sections {
					h.Sections[i] = math.MaxInt64
				}
				if n := len(h.Sections); n > 1 {
					h.Sections[n-1] = body + 2
				}
				return h
			})
		}},
	}
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			key := d.name
			save(t, key, storeSample())
			path := st.path(key)
			planted := d.plant(readFile(t, path))
			writeFile(t, path, planted)
			_, err := load(key)
			if err == nil || !strings.Contains(err.Error(), d.cause) || !strings.Contains(err.Error(), "quarantined") {
				t.Fatalf("Load of a %s entry = %v, want a quarantining %q error", d.name, err, d.cause)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Fatal("rejected file still occupies the entry's path")
			}
			if pm := readFile(t, path+quarantineSuffix); !bytes.Equal(pm, planted) {
				t.Fatal("post-mortem copy altered")
			}
			expectMiss(t, key)
			save(t, key, storeSample())
			expectSample(t, key)
		})
	}

	stats, sum := st.Stats(), st.Summary()
	if stats.Hits+stats.Misses != uint64(loads) {
		t.Errorf("hits %d + misses %d != %d Load calls", stats.Hits, stats.Misses, loads)
	}
	if stats.Corrupt != uint64(sum.Corrupt) || sum.Corrupt != len(damages) {
		t.Errorf("Stats().Corrupt = %d, Summary() finds %d .corrupt files, want %d",
			stats.Corrupt, sum.Corrupt, len(damages))
	}
}

// TestGoldenFormat pins the exact bytes one Save writes, so
// any change to the file format shows up as a reviewed diff of
// testdata/golden next to its schema bump (go test -update rewrites).
func TestGoldenFormat(t *testing.T) {
	st := mustOpenStore(t, t.TempDir())
	if err := st.Save(goldenKey, storeSample()); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, st.path(goldenKey))
	path := filepath.Join("testdata", "golden", "result.unit.jsonl")
	if *update {
		writeFile(t, path, got)
		return
	}
	if want := readFile(t, path); !bytes.Equal(got, want) {
		t.Errorf("Save output differs from %s (bump the schema and rerun with -update if intended):\n got %q\nwant %q",
			path, got, want)
	}
}

// FuzzStoreLoad writes arbitrary bytes as the entry for one key and
// loads them. Load must never panic; an entry it rejects must be
// counted and quarantined, freeing the path for the recompute; an entry
// it accepts must survive a Save/Load round trip unchanged. The seed
// corpus (testdata/fuzz/FuzzStoreLoad) holds real Save outputs,
// truncations of them and crafted headers.
func FuzzStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st := mustOpenStore(t, t.TempDir())
		path := st.path(goldenKey)
		writeFile(t, path, data)
		res, err := st.Load(goldenKey)
		if err != nil {
			if res != nil {
				t.Fatalf("Load returned both a result and %v", err)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Fatalf("rejected entry still at its path (%v): %v", serr, err)
			}
			if _, serr := os.Stat(path + quarantineSuffix); serr != nil {
				t.Fatalf("rejected entry not quarantined (%v): %v", serr, err)
			}
			if s := st.Stats(); s.Corrupt != 1 || s.Misses != 1 || s.Hits != 0 {
				t.Fatalf("stats %+v after one rejection", s)
			}
			return
		}
		if res == nil {
			t.Fatal("present entry loaded as a miss")
		}
		if err := st.Save(goldenKey, res); err != nil {
			t.Fatalf("accepted entry does not re-save: %v", err)
		}
		first := readFile(t, path)
		again, err := st.Load(goldenKey)
		if err != nil || again == nil {
			t.Fatalf("re-saved entry does not load: (%v, %v)", again, err)
		}
		if err := st.Save(goldenKey, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, path), first) {
			t.Fatal("accepted entry changes across a Save/Load round trip")
		}
	})
}

func TestQuarantineMovesAside(t *testing.T) {
	st := mustOpenStore(t, t.TempDir())
	path := st.path("entry")
	writeFile(t, path, []byte("bad bytes"))
	if err := st.quarantine(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("original still present after quarantine")
	}
	got, err := os.ReadFile(path + quarantineSuffix)
	if err != nil || string(got) != "bad bytes" {
		t.Fatalf("quarantined copy = %q, %v", got, err)
	}
	// A second quarantine of the same path replaces the post-mortem copy.
	writeFile(t, path, []byte("worse bytes"))
	if err := st.quarantine(path); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path + quarantineSuffix)
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
		writeFile(t, p, []byte("x"))
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(other, old, old); err != nil {
		t.Fatal(err)
	}
	st := &ResultStore{dir: dir}
	if n := st.cleanStaleTemps(time.Hour); n != 1 {
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
	st := &ResultStore{dir: filepath.Join(t.TempDir(), "nope")}
	if n := st.cleanStaleTemps(time.Hour); n != 0 {
		t.Fatalf("missing dir removed %d", n)
	}
}
