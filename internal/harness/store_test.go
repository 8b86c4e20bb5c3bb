package harness

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

func storeSample() *UnitResult {
	proto := &trace.Collector{}
	proto.OnTx(100, packet.NewData(100, 1, 7, []byte("x")), time.Second, 8*time.Millisecond)
	proto.OnComplete(1, 2*time.Second)
	traffic := &trace.Collector{}
	traffic.OnVehicle(trace.VehicleRecord{At: 0, Veh: 3, Link: 2, Lane: 0, Arc: 40, Speed: 8.25})
	return &UnitResult{
		Meta:     json.RawMessage(`{"duration_ns":1500000000,"vehicles":3}`),
		Protocol: proto,
		Traffic:  traffic,
	}
}

func collectorBytes(t *testing.T, c *trace.Collector) []byte {
	t.Helper()
	if c == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreRoundTrip saves a full three-section result and checks the
// load reproduces every section byte-identically (collectors compared
// through their canonical wire form).
func TestStoreRoundTrip(t *testing.T) {
	store, err := NewResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "result-store/1|seed=1|exp=\"probe\"|round=0"
	want := storeSample()
	if err := store.Save(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("saved key loads as miss")
	}
	if string(got.Meta) != string(want.Meta) {
		t.Fatalf("meta %s, want %s", got.Meta, want.Meta)
	}
	if !bytes.Equal(collectorBytes(t, got.Protocol), collectorBytes(t, want.Protocol)) {
		t.Fatal("protocol section diverges after round trip")
	}
	if !bytes.Equal(collectorBytes(t, got.Traffic), collectorBytes(t, want.Traffic)) {
		t.Fatal("traffic section diverges after round trip")
	}
}

// TestStoreNilSections distinguishes absent sections (nil pointers, -1
// lengths) from empty ones: a result with no traffic stream must load
// with Traffic == nil, not an empty collector.
func TestStoreNilSections(t *testing.T) {
	store, err := NewResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		res  *UnitResult
	}{
		{"meta-only", &UnitResult{Meta: json.RawMessage(`{}`)}},
		{"proto-only", &UnitResult{Protocol: &trace.Collector{}}},
		{"all-nil", &UnitResult{}},
	}
	for _, tc := range cases {
		if err := store.Save(tc.name, tc.res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := store.Load(tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (got.Meta == nil) != (tc.res.Meta == nil) {
			t.Errorf("%s: meta presence %v, want %v", tc.name, got.Meta != nil, tc.res.Meta != nil)
		}
		if (got.Protocol == nil) != (tc.res.Protocol == nil) {
			t.Errorf("%s: protocol presence %v, want %v", tc.name, got.Protocol != nil, tc.res.Protocol != nil)
		}
		if (got.Traffic == nil) != (tc.res.Traffic == nil) {
			t.Errorf("%s: traffic presence %v, want %v", tc.name, got.Traffic != nil, tc.res.Traffic != nil)
		}
	}
}

// TestStoreMissReturnsNilNil: an absent key is a miss, not an error.
func TestStoreMissReturnsNilNil(t *testing.T) {
	store, err := NewResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.Load("never-written")
	if res != nil || err != nil {
		t.Fatalf("Load(absent) = (%v, %v), want (nil, nil)", res, err)
	}
}

// TestStoreKeyCollision: two keys hashing to the same file must never
// alias — the embedded full key catches the collision as an error.
func TestStoreKeyCollision(t *testing.T) {
	store, err := NewResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("key-a", &UnitResult{Meta: json.RawMessage(`{"a":1}`)}); err != nil {
		t.Fatal(err)
	}
	// Simulate an FNV collision by renaming key-a's file to key-b's path.
	if err := os.Rename(store.Path("key-a"), store.Path("key-b")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("key-b"); err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("colliding load error = %v, want key mismatch", err)
	}
}

// TestStoreRejectsForeignSchema: files written under any other schema
// version are refused, degrading to recomputation.
func TestStoreRejectsForeignSchema(t *testing.T) {
	store, err := NewResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("key", &UnitResult{Meta: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	path := store.Path("key")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := bytes.Replace(data, []byte(ResultStoreSchema), []byte("result-store/0"), 2)
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("key"); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign-schema load error = %v, want schema error", err)
	}
}

// TestStoreDetectsTruncationAndCorruption: a short body fails the
// length check; a flipped body byte fails the CRC.
func TestStoreDetectsTruncationAndCorruption(t *testing.T) {
	store, err := NewResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("key", storeSample()); err != nil {
		t.Fatal(err)
	}
	path := store.Path("key")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("key"); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated load error = %v, want truncation error", err)
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-2] ^= 0x01
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("key"); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt load error = %v, want CRC error", err)
	}

	// Overwriting with a fresh Save recovers the entry.
	if err := store.Save("key", storeSample()); err != nil {
		t.Fatal(err)
	}
	if res, err := store.Load("key"); err != nil || res == nil {
		t.Fatalf("recovered load = (%v, %v)", res, err)
	}
}

// craftedOverflowEntry is a store file whose section lengths overflow
// int64 when summed into agreement with its body length (MaxInt64 +
// MaxInt64 + len(body)+2 wraps to len(body)), under a correct body CRC,
// so only the per-section bounds check can catch it.
func craftedOverflowEntry(key string) []byte {
	body := []byte(`{"a":1}`)
	hdr, _ := json.Marshal(resultHeader{
		Schema:     ResultStoreSchema,
		Key:        key,
		MetaLen:    math.MaxInt64,
		ProtoLen:   math.MaxInt64,
		TrafficLen: int64(len(body)) + 2,
		BodyCRC:    crc32.ChecksumIEEE(body),
	})
	return append(append(hdr, '\n'), body...)
}

// TestStoreQuarantinesOverflowingHeader: a crafted header must be
// rejected and quarantined like any other corrupt entry, never panic.
func TestStoreQuarantinesOverflowingHeader(t *testing.T) {
	store, err := NewResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := store.Path("key")
	if err := os.WriteFile(path, craftedOverflowEntry("key"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := store.Load("key")
	if res != nil || err == nil || !strings.Contains(err.Error(), "section length") {
		t.Fatalf("Load(crafted) = (%v, %v), want section-length error", res, err)
	}
	if _, err := os.Stat(path + storeutil.QuarantineSuffix); err != nil {
		t.Fatalf("crafted entry not quarantined: %v", err)
	}
	if got := store.Stats().Corrupt; got != 1 {
		t.Fatalf("corrupt count %d, want 1", got)
	}
}

// TestStoreSummaryCounts covers the store endpoint's data source.
func TestStoreSummaryCounts(t *testing.T) {
	dir := t.TempDir()
	store, err := NewResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c"} {
		if err := store.Save(key, &UnitResult{Meta: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	// Foreign files in the directory are not entries.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := store.Summary()
	if sum.Entries != 3 || sum.Bytes <= 0 || sum.Schema != ResultStoreSchema || sum.Dir != dir {
		t.Fatalf("summary %+v", sum)
	}
}
