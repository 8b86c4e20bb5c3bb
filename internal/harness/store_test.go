package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// storeSample is a full three-section result, the golden entry's value:
// a protocol trace and a traffic stream of one vehicle sampled twice.
func storeSample() *UnitResult {
	proto := &trace.Collector{}
	proto.OnTx(100, packet.NewData(100, 1, 7, []byte("x")), time.Second, 8*time.Millisecond)
	proto.OnComplete(1, 2*time.Second)
	traffic := &trace.Collector{Vehicles: []trace.VehicleRecord{
		{At: 0, Veh: 3, Link: 2, Lane: 0, Arc: 40, Speed: 8.25},
		{At: time.Second, Veh: 3, Link: 2, Lane: 0, Arc: 48.25, Speed: 8.5},
	}}
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
	const key = "result-store/2|seed=1|exp=\"probe\"|round=0"
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

// TestStoreCounterSeries holds the result_store_*_total series to the
// stores' own Stats: the benchmark reads five of them from a run's
// metrics.json and fails a run that lacks one. A cold sweep fills a
// store; a warm sweep over it then meets one planted corrupt entry, so
// every series moves, each by exactly its Stats field summed over both
// runs' stores.
func TestStoreCounterSeries(t *testing.T) {
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	series := func() map[string]uint64 {
		got := make(map[string]uint64)
		for _, c := range metrics.Default().Snapshot().Counters {
			if strings.HasPrefix(c.Name, "result_store_") {
				got[c.Name] = c.Value
			}
		}
		return got
	}
	const rounds = 4
	storeDir := t.TempDir()
	before := series()
	cold, _, _ := runSynthetic(t, resumeRunner(t, storeDir, rounds, 2), rounds)
	entries, err := filepath.Glob(filepath.Join(storeDir, "*"+resultExt))
	if err != nil || len(entries) != rounds {
		t.Fatalf("cold sweep stored %d entries (%v), want %d", len(entries), err, rounds)
	}
	data := readFile(t, entries[0])
	data[len(data)-1] ^= 0x40
	writeFile(t, entries[0], data)
	warm, _, computes := runSynthetic(t, resumeRunner(t, storeDir, rounds, 2), rounds)
	if *computes != 1 {
		t.Fatalf("warm sweep computed %d units, want the 1 corrupt one", *computes)
	}
	after := series()

	a, b := cold.runner.store.Stats(), warm.runner.store.Stats()
	for name, want := range map[string]uint64{
		"result_store_hits_total":          a.Hits + b.Hits,
		"result_store_misses_total":        a.Misses + b.Misses,
		"result_store_read_bytes_total":    a.ReadBytes + b.ReadBytes,
		"result_store_saves_total":         a.Saves + b.Saves,
		"result_store_written_bytes_total": a.WrittenBytes + b.WrittenBytes,
		"result_store_corrupt_total":       a.Corrupt + b.Corrupt,
	} {
		v, ok := after[name]
		switch {
		case !ok:
			t.Errorf("series %s is not registered", name)
		case want == 0:
			t.Errorf("Stats field behind %s did not move: the sweep exercises nothing", name)
		case v-before[name] != want:
			t.Errorf("%s moved by %d, Stats say %d", name, v-before[name], want)
		}
	}
}

// pinnedRoundSections returns the result-store codec sections of round 0
// of cfg, computed as a harness unit computes it.
func pinnedRoundSections[C scenario.Family[C, R], R any](t *testing.T, cfg C) [][]byte {
	t.Helper()
	cfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	r, err := cfg.Round(0, trace.NewStudyCollector())
	if err != nil {
		t.Fatal(err)
	}
	res, err := storedRound(r)
	if err != nil {
		t.Fatal(err)
	}
	return new(ResultStore).encode(res)
}

// TestStoreSchemaPin fails a change to the stored form of one round per
// scenario family that leaves ResultStoreSchema as it is: a store would
// then serve rounds the current code no longer computes. The configs are
// the small ones of the scenario package's cross-family suites
// (families_test.go); the entry header, which holds the code digest, is
// left out.
func TestStoreSchemaPin(t *testing.T) {
	testbed := scenario.DefaultTestbed()
	testbed.Rounds = 1
	highway := scenario.DefaultHighway()
	highway.Rounds = 1
	corridor := scenario.DefaultCorridor()
	corridor.Rounds = 1
	twoway := scenario.DefaultTwoWay()
	twoway.Rounds = 1
	download := scenario.DefaultDownload()
	download.FileBlocks = 40
	download.MaxLaps = 2
	grid := scenario.DefaultTrafficGrid()
	grid.Rounds = 1
	grid.Duration = 60 * time.Second
	stopgo := scenario.DefaultStopGo()
	stopgo.Rounds = 1
	demand := scenario.DefaultCityDemand()
	demand.Rounds = 1
	demand.Cars = 4
	demand.GridRows, demand.GridCols = 8, 8
	demand.DemandScale = 2
	demand.Duration = 30 * time.Second
	city := scenario.DefaultCityScale()
	city.GridRows, city.GridCols = 8, 8
	city.Background = 80
	city.Cars = 6
	city.Duration = 30 * time.Second
	city.Rounds = 1

	h := sha256.New()
	for _, f := range []struct {
		name     string
		sections [][]byte
	}{
		{testbed.Name(), pinnedRoundSections(t, testbed)},
		{highway.Name(), pinnedRoundSections(t, highway)},
		{corridor.Name(), pinnedRoundSections(t, corridor)},
		{twoway.Name(), pinnedRoundSections(t, twoway)},
		{download.Name(), pinnedRoundSections(t, download)},
		{grid.Name(), pinnedRoundSections(t, grid)},
		{stopgo.Name(), pinnedRoundSections(t, stopgo)},
		{demand.Name(), pinnedRoundSections(t, demand)},
		{city.Name(), pinnedRoundSections(t, city)},
	} {
		h.Write([]byte(f.name))
		for _, b := range f.sections {
			n := int64(len(b))
			if b == nil {
				n = -1
			}
			h.Write(binary.AppendVarint(nil, n))
			h.Write(b)
		}
	}
	got := ResultStoreSchema + " " + hex.EncodeToString(h.Sum(nil))
	if schema, _, _ := strings.Cut(resultStoreSchemaPin, " "); got != resultStoreSchemaPin {
		if schema == ResultStoreSchema {
			t.Fatalf("the reference rounds' stored form changed under an unchanged harness.ResultStoreSchema %q: bump harness.ResultStoreSchema, then set resultStoreSchemaPin to the new schema and digest\n got %s\npin %s", ResultStoreSchema, got, resultStoreSchemaPin)
		}
		t.Fatalf("harness.ResultStoreSchema is %q but resultStoreSchemaPin names %q: set resultStoreSchemaPin to %q", ResultStoreSchema, schema, got)
	}
}
