package traffic

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/storeutil"
)

// storeTestWorld records a real (small) grid simulation so store tests
// exercise genuine trajectory payloads, not synthetic records.
func storeTestWorld(t *testing.T) *World {
	t.Helper()
	g, err := NewGridNetwork(GridSpec{
		Rows: 2, Cols: 2, BlockM: 120, Lanes: 1, LaneWidthM: 3.2,
		SpeedLimitMPS: 14, Green: 20 * time.Second, AllRed: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []VehicleSpec{
		{Driver: DefaultDriver(), Link: 0, Lane: 0, ArcM: 10},
		{Driver: DefaultDriver(), Link: 1, Lane: 0, ArcM: 30},
	}
	s, err := New(Config{Network: g.Network, Seed: 5}, specs)
	if err != nil {
		t.Fatal(err)
	}
	s.RunTo(20 * time.Second)
	return s.World()
}

func jsonlBytes(t *testing.T, w *World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Trace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreRoundTripByteIdentity(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := storeTestWorld(t)
	const key = "grid|seed=5|veh=2|dur=20s"
	if err := st.Save(key, w); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("saved key loads as a miss")
	}
	// The loaded world must serialize to the exact bytes of the
	// original, the property that makes disk-served replays
	// byte-identical to the in-memory cache's recording.
	if !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, w)) {
		t.Fatal("store round-trip changed the JSONL byte stream")
	}
}

func TestStoreMissOnAbsentKey(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Load("never-saved")
	if err != nil {
		t.Fatalf("absent key must be a clean miss, got error %v", err)
	}
	if w != nil {
		t.Fatal("absent key returned a world")
	}
}

// TestStoreIsUnbounded pins that the store grows with every Save and
// never deletes an entry.
func TestStoreIsUnbounded(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := storeTestWorld(t)
	for _, key := range []string{"a", "b", "c"} {
		if err := st.Save(key, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"a", "b", "c"} {
		if got, err := st.Load(key); err != nil || got == nil {
			t.Fatalf("entry %q missing after later saves: %v", key, err)
		}
	}
}

func TestStoreSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("k", storeTestWorld(t)); err != nil {
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
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := storeTestWorld(t)
	const key = "quarantine-trace-key"
	if err := st.Save(key, w); err != nil {
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
	if err := st.Save(key, w); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(key)
	if err != nil || got == nil || !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, w)) {
		t.Fatalf("healed entry = (%v, %v)", got, err)
	}
}

// referenceWorlds records one short world per network kind: a fixed-time
// grid, an actuated grid, a ring road with a speed cap, and OD demand.
// Each runs car-following, lane changes and its kind's signal or entry
// logic, so a change to how worlds step reaches their bytes.
func referenceWorlds(t *testing.T) map[string]*World {
	t.Helper()
	record := func(net *Network, specs []VehicleSpec, d time.Duration) *World {
		s, err := New(Config{Network: net, Seed: 3}, specs)
		if err != nil {
			t.Fatal(err)
		}
		s.RunTo(d)
		return s.World()
	}
	grid := func(actuated bool) *World {
		spec := defaultGridSpec()
		if actuated {
			ap := DefaultActuatedParams()
			spec.Actuated = &ap
		}
		g, err := NewGridNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		var specs []VehicleSpec
		for i := 0; i < 8; i++ {
			specs = append(specs, VehicleSpec{Driver: DefaultDriver(), Link: LinkID(i % 4), Lane: i % 2, ArcM: float64(10 + 25*(i/4))})
		}
		return record(g.Network, specs, 40*time.Second)
	}
	ring, err := NewRingRoad(RingSpec{CircumferenceM: 400, Lanes: 2, LaneWidthM: 3.5, SpeedLimitMPS: 14})
	if err != nil {
		t.Fatal(err)
	}
	var ringSpecs []VehicleSpec
	for i := 0; i < 10; i++ {
		ringSpecs = append(ringSpecs, VehicleSpec{Driver: DefaultDriver(), Lane: i % 2, ArcM: float64(40 * i), SpeedMPS: 8})
	}
	ringSpecs[0].Caps = []SpeedCap{{From: 5 * time.Second, To: 15 * time.Second, MaxMPS: 2}}
	g := demandTestGrid(t, 2)
	demand, err := ExpandDemand(g.Network, demandTestFlows(t, g), time.Minute, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*World{
		"fixed grid":    grid(false),
		"actuated grid": grid(true),
		"ring":          record(ring, ringSpecs, 30*time.Second),
		"demand":        record(g.Network, demand, 90*time.Second),
	}
}

// TestStoreSchemaPin fails a change to the reference worlds' store bytes
// that leaves StoreSchema as it is: a stored world would then replay
// dynamics the current code no longer computes.
func TestStoreSchemaPin(t *testing.T) {
	worlds := referenceWorlds(t)
	h := sha256.New()
	for _, name := range []string{"fixed grid", "actuated grid", "ring", "demand"} {
		sections, err := worldCodec.Encode(worlds[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range sections {
			h.Write(binary.AppendUvarint([]byte(name), uint64(len(b))))
			h.Write(b)
		}
	}
	got := StoreSchema + " " + hex.EncodeToString(h.Sum(nil))
	if schema, _, _ := strings.Cut(storeSchemaPin, " "); got != storeSchemaPin {
		if schema == StoreSchema {
			t.Fatalf("the reference worlds' store bytes changed under an unchanged traffic.StoreSchema %q: bump traffic.StoreSchema, then set storeSchemaPin to the new schema and digest\n got %s\npin %s", StoreSchema, got, storeSchemaPin)
		}
		t.Fatalf("traffic.StoreSchema is %q but storeSchemaPin names %q: set storeSchemaPin to %q", StoreSchema, schema, got)
	}
}
