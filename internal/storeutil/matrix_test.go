package storeutil_test

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
	"repro/internal/harness"
	"repro/internal/packet"
	"repro/internal/storeutil"
	"repro/internal/trace"
	"repro/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current Save output")

// goldenKey is the key of the golden entries and of every fuzz input.
const goldenKey = "golden|seed=1|round=0"

// codecCase adapts one typed store to the shared tests.
type codecCase[T comparable] struct {
	name string
	// fault is the store's fault-site prefix: <fault>.load and
	// <fault>.save.write.
	fault  string
	open   func(dir string) (*storeutil.Store[T], error)
	sample func() T
	// parent renders a header as the codec's format before the shared
	// store wrote it (same key, body and CRC; the old schema and fields),
	// the shape a store directory from an older build still holds.
	parent func(h header) any
}

var resultCase = codecCase[*harness.UnitResult]{
	name:  "result",
	fault: "harness.store",
	open:  harness.NewResultStore,
	sample: func() *harness.UnitResult {
		proto := &trace.Collector{}
		proto.OnTx(100, packet.NewData(100, 1, 7, []byte("x")), time.Second, 8*time.Millisecond)
		proto.OnComplete(1, 2*time.Second)
		return &harness.UnitResult{
			Meta:     json.RawMessage(`{"duration_ns":1500000000,"vehicles":3}`),
			Protocol: proto,
			Traffic:  trafficSample(),
		}
	},
	parent: func(h header) any {
		return struct {
			Schema     string `json:"schema"`
			Key        string `json:"key"`
			MetaLen    int64  `json:"meta_len"`
			ProtoLen   int64  `json:"proto_len"`
			TrafficLen int64  `json:"traffic_len"`
			BodyCRC    uint32 `json:"body_crc"`
		}{"result-store/1", h.Key, h.Sections[0], h.Sections[1], h.Sections[2], h.BodyCRC}
	},
}

var trafficCase = codecCase[*trace.Collector]{
	name:   "traffic",
	fault:  "traffic.store",
	open:   func(dir string) (*traffic.Store, error) { return traffic.NewStore(dir, 0) },
	sample: trafficSample,
	parent: func(h header) any {
		return struct {
			Schema  string `json:"schema"`
			Key     string `json:"key"`
			BodyLen int64  `json:"body_len"`
			BodyCRC uint32 `json:"body_crc"`
		}{"traffic-trace-store/2", h.Key, h.Sections[0], h.BodyCRC}
	},
}

func trafficSample() *trace.Collector {
	col := &trace.Collector{}
	col.OnVehicle(trace.VehicleRecord{At: 0, Veh: 3, Link: 2, Lane: 0, Arc: 40, Speed: 8.25})
	col.OnVehicle(trace.VehicleRecord{At: time.Second, Veh: 3, Link: 2, Lane: 0, Arc: 48.25, Speed: 8.5})
	return col
}

// header mirrors the store's header line.
type header struct {
	Schema   string  `json:"schema"`
	Key      string  `json:"key"`
	Sections []int64 `json:"sections"`
	BodyCRC  uint32  `json:"body_crc"`
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

func mustOpen[T comparable](t *testing.T, c codecCase[T], dir string) *storeutil.Store[T] {
	t.Helper()
	st, err := c.open(dir)
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
// once per codec against one store, then checks the store's accounting:
// every Load is one hit or one miss, and every quarantine left exactly
// one post-mortem file.
func TestStoreMatrix(t *testing.T) {
	t.Run(resultCase.name, func(t *testing.T) { runMatrix(t, resultCase) })
	t.Run(trafficCase.name, func(t *testing.T) { runMatrix(t, trafficCase) })
}

func runMatrix[T comparable](t *testing.T, c codecCase[T]) {
	t.Cleanup(faultpoint.DisarmAll)
	dir := t.TempDir()
	st := mustOpen(t, c, dir)
	loads := 0
	var zero T
	load := func(key string) (T, error) {
		loads++
		return st.Load(key)
	}
	save := func(t *testing.T, key string, v T) {
		t.Helper()
		if err := st.Save(key, v); err != nil {
			t.Fatal(err)
		}
	}
	// wire renders a value as a fresh Save writes it, the canonical form
	// values are compared in.
	scratch := mustOpen(t, c, t.TempDir())
	wire := func(t *testing.T, v T) []byte {
		t.Helper()
		if err := scratch.Save("wire", v); err != nil {
			t.Fatal(err)
		}
		return readFile(t, scratch.Path("wire"))
	}
	want := wire(t, c.sample())
	expectSample := func(t *testing.T, key string) {
		t.Helper()
		v, err := load(key)
		if err != nil || v == zero {
			t.Fatalf("Load(%q) = (%v, %v), want the sample", key, v, err)
		}
		if !bytes.Equal(wire(t, v), want) {
			t.Fatalf("Load(%q) does not round-trip the sample", key)
		}
	}
	expectMiss := func(t *testing.T, key string) {
		t.Helper()
		if v, err := load(key); v != zero || err != nil {
			t.Fatalf("Load(%q) = (%v, %v), want a clean miss", key, v, err)
		}
	}

	// The torn write runs first: it reopens the store, and the closing
	// identities count from that open.
	t.Run("torn-write", func(t *testing.T) {
		const key = "torn-write"
		faultpoint.New(c.fault + ".save.write").MustArm(faultpoint.Spec{
			Action: faultpoint.ActShortWrite, Bytes: 10, Key: key,
		})
		faultpoint.SetEnabled(true)
		err := st.Save(key, c.sample())
		faultpoint.DisarmAll()
		if err == nil || !strings.Contains(err.Error(), "short write") {
			t.Fatalf("faulted Save = %v, want an injected short write", err)
		}
		if _, serr := os.Stat(st.Path(key)); !os.IsNotExist(serr) {
			t.Fatal("short write published a partial entry")
		}
		torn := temps(t, dir)
		if len(torn) != 1 || len(readFile(t, torn[0])) != 10 {
			t.Fatalf("torn write left temps %v, want one of the armed 10 bytes", torn)
		}
		// Reopening sweeps temps old enough to be a crashed writer's.
		old := time.Now().Add(-2 * storeutil.StaleTempAge)
		if err := os.Chtimes(torn[0], old, old); err != nil {
			t.Fatal(err)
		}
		st, loads = mustOpen(t, c, dir), 0
		if left := temps(t, dir); len(left) != 0 {
			t.Fatalf("stale temps survived reopen: %v", left)
		}
		expectMiss(t, key)
		save(t, key, c.sample())
		expectSample(t, key)
	})

	t.Run("round-trip", func(t *testing.T) {
		save(t, "round-trip", c.sample())
		expectSample(t, "round-trip")
		if left := temps(t, dir); len(left) != 0 {
			t.Fatalf("Save left temps behind: %v", left)
		}
	})

	t.Run("miss", func(t *testing.T) { expectMiss(t, "never-saved") })

	// An injected load error is a miss that leaves the entry intact.
	t.Run("load-fault", func(t *testing.T) {
		const key = "load-fault"
		save(t, key, c.sample())
		faultpoint.New(c.fault + ".load").MustArm(faultpoint.Spec{
			Action: faultpoint.ActError, Msg: "injected read failure", Key: key, Count: 1,
		})
		faultpoint.SetEnabled(true)
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
			return rewriteHeader(t, b, func(h *header) any { return c.parent(*h) })
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
			save(t, key, c.sample())
			path := st.Path(key)
			planted := d.plant(readFile(t, path))
			writeFile(t, path, planted)
			_, err := load(key)
			if err == nil || !strings.Contains(err.Error(), d.cause) || !strings.Contains(err.Error(), "quarantined") {
				t.Fatalf("Load of a %s entry = %v, want a quarantining %q error", d.name, err, d.cause)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Fatal("rejected file still occupies the entry's path")
			}
			if pm := readFile(t, path+storeutil.QuarantineSuffix); !bytes.Equal(pm, planted) {
				t.Fatal("post-mortem copy altered")
			}
			expectMiss(t, key)
			save(t, key, c.sample())
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

// TestGoldenFormat pins the exact bytes one Save writes per codec, so
// any change to the file format shows up as a reviewed diff of
// testdata/golden next to its schema bump (go test -update rewrites).
func TestGoldenFormat(t *testing.T) {
	t.Run(resultCase.name, func(t *testing.T) { checkGolden(t, resultCase, "result.unit.jsonl") })
	t.Run(trafficCase.name, func(t *testing.T) { checkGolden(t, trafficCase, "traffic.trace.jsonl") })
}

func checkGolden[T comparable](t *testing.T, c codecCase[T], name string) {
	st := mustOpen(t, c, t.TempDir())
	if err := st.Save(goldenKey, c.sample()); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, st.Path(goldenKey))
	path := filepath.Join("testdata", "golden", name)
	if *update {
		writeFile(t, path, got)
		return
	}
	if want := readFile(t, path); !bytes.Equal(got, want) {
		t.Errorf("Save output differs from %s (bump the schema and rerun with -update if intended):\n got %s\nwant %s",
			path, got, want)
	}
}
