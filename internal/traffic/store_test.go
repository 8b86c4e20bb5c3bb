package traffic

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/storeutil"
	"repro/internal/trace"
)

// storeTestStream records a real (small) grid simulation so store tests
// exercise genuine trajectory payloads, not synthetic records.
func storeTestStream(t *testing.T) *trace.Collector {
	t.Helper()
	g, err := NewGridNetwork(GridSpec{
		Rows: 2, Cols: 2, BlockM: 120, Lanes: 1, LaneWidthM: 3.2,
		SpeedLimitMPS: 14, Green: 20 * time.Second, AllRed: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Collector{}
	specs := []VehicleSpec{
		{Driver: DefaultDriver(), Link: 0, Lane: 0, ArcM: 10},
		{Driver: DefaultDriver(), Link: 1, Lane: 0, ArcM: 30},
	}
	s, err := New(Config{Network: g.Network, Seed: 5, Recorder: rec}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(20 * time.Second)
	if len(rec.Vehicles) == 0 {
		t.Fatal("test stream recorded no samples")
	}
	return rec
}

func jsonlBytes(t *testing.T, col *trace.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreRoundTripByteIdentity(t *testing.T) {
	st, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	const key = "grid|seed=5|veh=2|dur=20s"
	if err := st.Save(key, col); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("saved key loads as a miss")
	}
	// The loaded stream must serialize to the exact bytes of the
	// original — the property that makes disk-served replays
	// byte-identical to the in-memory cache's recording.
	if !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, col)) {
		t.Fatal("store round-trip changed the JSONL byte stream")
	}
}

func TestStoreMissOnAbsentKey(t *testing.T) {
	st, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	col, err := st.Load("never-saved")
	if err != nil {
		t.Fatalf("absent key must be a clean miss, got error %v", err)
	}
	if col != nil {
		t.Fatal("absent key returned a stream")
	}
}

// storeFileSize returns the on-disk size of one saved entry, for sizing
// eviction budgets.
func storeFileSize(t *testing.T, st *Store, key string) int64 {
	t.Helper()
	info, err := os.Stat(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// withBudget reopens st's directory under a byte budget.
func withBudget(t *testing.T, st *Store, maxBytes int64) *Store {
	t.Helper()
	st, err := NewStore(st.Dir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// ageEntry pushes a stored entry's mtime into the past so eviction-order
// tests are deterministic regardless of filesystem timestamp resolution.
func ageEntry(t *testing.T, st *Store, key string, age time.Duration) {
	t.Helper()
	old := time.Now().Add(-age)
	if err := os.Chtimes(st.Path(key), old, old); err != nil {
		t.Fatal(err)
	}
}

// TestStoreEvictionDefaultOff pins the default: without a budget the
// store grows without bound and never deletes anything.
func TestStoreEvictionDefaultOff(t *testing.T) {
	st, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	for _, key := range []string{"a", "b", "c"} {
		if err := st.Save(key, col); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"a", "b", "c"} {
		if got, err := st.Load(key); err != nil || got == nil {
			t.Fatalf("entry %q missing with eviction off: %v", key, err)
		}
	}
}

// TestStoreEvictionRespectsBudget fills the store past its byte cap and
// checks the oldest entries go first while the store shrinks under the
// budget.
func TestStoreEvictionRespectsBudget(t *testing.T) {
	st, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	if err := st.Save("old", col); err != nil {
		t.Fatal(err)
	}
	size := storeFileSize(t, st, "old")
	st = withBudget(t, st, 2*size+size/2) // room for two entries, not three
	ageEntry(t, st, "old", 2*time.Hour)
	if err := st.Save("mid", col); err != nil {
		t.Fatal(err)
	}
	ageEntry(t, st, "mid", time.Hour)
	if err := st.Save("new", col); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Load("old"); err != nil || got != nil {
		t.Fatalf("oldest entry survived eviction (col=%v err=%v)", got != nil, err)
	}
	for _, key := range []string{"mid", "new"} {
		if got, err := st.Load(key); err != nil || got == nil {
			t.Fatalf("entry %q evicted although the budget had room: %v", key, err)
		}
	}
}

// TestStoreEvictionSparesEntryBeingRead is the issue's acceptance test:
// a Load refreshes an entry's recency, so the eviction triggered by a
// later Save victimises a colder entry — never the one a sweep is
// actively reading.
func TestStoreEvictionSparesEntryBeingRead(t *testing.T) {
	st, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	if err := st.Save("hot", col); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("cold", col); err != nil {
		t.Fatal(err)
	}
	size := storeFileSize(t, st, "hot")
	st = withBudget(t, st, 2*size+size/2)
	// Make "hot" nominally the older file, then read it: the Load must
	// bump its recency above "cold".
	ageEntry(t, st, "hot", 2*time.Hour)
	ageEntry(t, st, "cold", time.Hour)
	if got, err := st.Load("hot"); err != nil || got == nil {
		t.Fatalf("hot entry unreadable before eviction: %v", err)
	}
	if err := st.Save("trigger", col); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Load("hot"); err != nil || got == nil {
		t.Fatalf("eviction removed the entry being read (col=%v err=%v)", got != nil, err)
	}
	if got, err := st.Load("cold"); err != nil || got != nil {
		t.Fatal("eviction spared the cold entry instead of the hot one")
	}
}

// TestStoreEvictionSparesJustSaved: a budget smaller than a single
// stream must still serve the stream just written — eviction never
// removes the entry that triggered it.
func TestStoreEvictionSparesJustSaved(t *testing.T) {
	st, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	if err := st.Save("first", col); err != nil {
		t.Fatal(err)
	}
	st = withBudget(t, st, storeFileSize(t, st, "first")/2)
	ageEntry(t, st, "first", time.Hour)
	if err := st.Save("second", col); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Load("second"); err != nil || got == nil {
		t.Fatalf("the just-saved entry was evicted by its own save: %v", err)
	}
	if got, err := st.Load("first"); err != nil || got != nil {
		t.Fatal("over-budget older entry survived")
	}
}

func TestStoreSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("k", storeTestStream(t)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", filepath.Join(dir, e.Name()))
		}
	}
}

// TestStoreQuarantineHeals: a corrupt trace entry is moved aside to
// <name>.corrupt on Load, reads as a clean miss afterwards, and the
// next Save repairs it.
func TestStoreQuarantineHeals(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	const key = "quarantine-trace-key"
	if err := st.Save(key, col); err != nil {
		t.Fatal(err)
	}
	path := st.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, lerr := st.Load(key)
	if lerr == nil || !strings.Contains(lerr.Error(), "CRC") || !strings.Contains(lerr.Error(), "quarantined") {
		t.Fatalf("Load of corrupt entry = %v, want a quarantining CRC error", lerr)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatal("corrupt file still occupies the entry's path")
	}
	if _, serr := os.Stat(path + storeutil.QuarantineSuffix); serr != nil {
		t.Fatalf("post-mortem copy missing: %v", serr)
	}
	if got, lerr := st.Load(key); got != nil || lerr != nil {
		t.Fatalf("Load after quarantine = (%v, %v), want a clean miss", got, lerr)
	}
	if err := st.Save(key, col); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(key)
	if err != nil || got == nil || !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, col)) {
		t.Fatalf("healed entry = (%v, %v)", got, err)
	}
}

// TestStoreEvictionCountsCorrupt: quarantined post-mortem files count
// toward the byte budget and are themselves evictable, so corruption
// can never push the store past its cap.
func TestStoreEvictionCountsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := storeTestStream(t)
	if err := st.Save("victim", col); err != nil {
		t.Fatal(err)
	}
	// Corrupt and quarantine the entry; the .corrupt file stays on disk.
	path := st.Path("victim")
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, lerr := st.Load("victim"); lerr == nil {
		t.Fatal("corrupt entry loaded")
	}
	corrupt := path + storeutil.QuarantineSuffix
	info, err := os.Stat(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	// Age the post-mortem file so it is the LRU victim, then budget the
	// store to a single entry and save another: the .corrupt bytes must
	// be evicted to make room.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(corrupt, old, old); err != nil {
		t.Fatal(err)
	}
	st = withBudget(t, st, info.Size()+16)
	if err := st.Save("fresh", col); err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(corrupt); !os.IsNotExist(serr) {
		t.Fatal("quarantined bytes were not counted by the budget")
	}
	if got, lerr := st.Load("fresh"); got == nil || lerr != nil {
		t.Fatalf("freshly saved entry evicted instead: (%v, %v)", got, lerr)
	}
}
