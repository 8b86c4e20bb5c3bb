package harness

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/storeutil"
	"repro/internal/trace"
)

// resumeRunner builds a store-backed runner writing into its own temp
// output directory.
func resumeRunner(t *testing.T, storeDir string, rounds int, workers int) *Runner {
	t.Helper()
	r, err := NewRunner(Options{
		Rounds: rounds, Seed: 1, OutDir: t.TempDir(), Workers: workers,
		ResultStore: storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// syntheticStoredRounds drives addStoredRounds with a pure counting
// compute function — the resume machinery without any simulation.
type syntheticCfg struct {
	Label string
	Gain  int
}

func runSynthetic(t *testing.T, r *Runner, rounds int) (ctx *Context, out []int, computes *int) {
	t.Helper()
	ctx = &Context{runner: r, rec: &ExperimentRecord{Name: "resume-probe"}}
	out = make([]int, rounds)
	computes = new(int)
	var mu sync.Mutex
	b := ctx.Batch()
	b.addStoredRounds("synthetic", "p0", rounds, syntheticCfg{Label: "p0", Gain: 3},
		func(round int) (*UnitResult, error) {
			mu.Lock()
			*computes++
			mu.Unlock()
			proto := &trace.Collector{}
			proto.OnComplete(packet.NodeID(round+1), time.Duration(round)*time.Second)
			return &UnitResult{Meta: []byte(fmt.Sprintf(`{"vehicles":%d}`, 3*round)), Protocol: proto}, nil
		},
		func(round int, res *UnitResult) error {
			r, err := loadRound(res)
			if err != nil {
				return err
			}
			if p := res.Protocol; p == nil || len(p.Completed) != 1 || p.Completed[0].Node != packet.NodeID(round+1) {
				return fmt.Errorf("round %d: protocol trace %+v", round, p)
			}
			out[round] = r.Vehicles
			return nil
		})
	if err := b.Go(); err != nil {
		t.Fatal(err)
	}
	return ctx, out, computes
}

// TestStoredRoundsResume is the resume contract in miniature: a full
// run populates the store, a second run computes nothing, and after
// deleting a subset of entries a third run recomputes exactly the
// deleted units — with identical applied results throughout.
func TestStoredRoundsResume(t *testing.T) {
	const rounds = 8
	storeDir := t.TempDir()

	ctx1, out1, computes1 := runSynthetic(t, resumeRunner(t, storeDir, rounds, 4), rounds)
	if *computes1 != rounds {
		t.Fatalf("cold run computed %d units, want %d", *computes1, rounds)
	}
	if got := ctx1.cached.Load(); got != 0 {
		t.Fatalf("cold run reported %d cached units", got)
	}

	// Warm run: everything served from the store.
	ctx2, out2, computes2 := runSynthetic(t, resumeRunner(t, storeDir, rounds, 4), rounds)
	if *computes2 != 0 {
		t.Fatalf("warm run computed %d units, want 0", *computes2)
	}
	if got := ctx2.cached.Load(); got != rounds {
		t.Fatalf("warm run cached %d units, want %d", got, rounds)
	}

	// Interrupt: drop rounds 2, 5 and 6 from the store, as if the sweep
	// died mid-flight.
	store, err := NewResultStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	deleted := []int{2, 5, 6}
	digest := storeutil.Digest(syntheticCfg{Label: "p0", Gain: 3})
	for _, round := range deleted {
		key := ctx2.unitKey("synthetic", "p0", round, digest)
		if err := os.Remove(store.Path(key)); err != nil {
			t.Fatal(err)
		}
	}

	ctx3, out3, computes3 := runSynthetic(t, resumeRunner(t, storeDir, rounds, 4), rounds)
	if *computes3 != len(deleted) {
		t.Fatalf("resumed run computed %d units, want exactly the %d deleted", *computes3, len(deleted))
	}
	if got := ctx3.cached.Load(); got != int64(rounds-len(deleted)) {
		t.Fatalf("resumed run cached %d units, want %d", got, rounds-len(deleted))
	}
	for round := 0; round < rounds; round++ {
		if out2[round] != out1[round] || out3[round] != out1[round] {
			t.Fatalf("round %d results diverge across runs: %d / %d / %d",
				round, out1[round], out2[round], out3[round])
		}
	}
}

// TestStoredRoundsKeyedByConfig: a changed config digest is a different
// unit — nothing is served across it.
func TestStoredRoundsKeyedByConfig(t *testing.T) {
	storeDir := t.TempDir()
	r := resumeRunner(t, storeDir, 4, 2)
	if _, _, computes := runSynthetic(t, r, 4); *computes != 4 {
		t.Fatalf("cold run computed %d", *computes)
	}

	// Same point, same rounds, different config: full recompute.
	ctx := &Context{runner: resumeRunner(t, storeDir, 4, 2), rec: &ExperimentRecord{Name: "resume-probe"}}
	computes := 0
	var mu sync.Mutex
	b := ctx.Batch()
	b.addStoredRounds("synthetic", "p0", 4, syntheticCfg{Label: "p0", Gain: 4},
		func(round int) (*UnitResult, error) {
			mu.Lock()
			computes++
			mu.Unlock()
			return &UnitResult{Meta: []byte(`{}`)}, nil
		},
		func(int, *UnitResult) error { return nil })
	if err := b.Go(); err != nil {
		t.Fatal(err)
	}
	if computes != 4 {
		t.Fatalf("changed config computed %d units, want 4 (no stale hits)", computes)
	}
}

// TestStoredRoundsRecomputeParentFormat: entries in the formats the
// result store wrote before — result-store/1 (per-section length fields,
// same body and CRC), result-store/2 (JSONL trace sections),
// result-store/4 (fixed-width binary trace sections), result-store/5
// (the current encoding, whose city traces also held the background
// beacons' events), result-store/6 (a traffic family's entry, which
// also carried the round's traffic stream), result-store/7 (a full
// trace: every frame type's receptions, with their radio fields, and
// drops) and result-store/8 (transmission records and no sent block) —
// and JSONL or fixed-width bodies under the current schema are
// quarantined by the next run and recomputed into the current format
// with identical applied results; the run after that serves every unit.
func TestStoredRoundsRecomputeParentFormat(t *testing.T) {
	const rounds = 9
	storeDir := t.TempDir()
	_, out1, _ := runSynthetic(t, resumeRunner(t, storeDir, rounds, 2), rounds)
	paths, err := filepath.Glob(filepath.Join(storeDir, "*.unit.jsonl"))
	if err != nil || len(paths) != rounds {
		t.Fatalf("cold run stored %d entries (%v), want %d", len(paths), err, rounds)
	}
	store, err := NewResultStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		nl := bytes.IndexByte(data, '\n')
		var hdr struct {
			Key      string  `json:"key"`
			Sections []int64 `json:"sections"`
			BodyCRC  uint32  `json:"body_crc"`
		}
		if err := json.Unmarshal(data[:nl], &hdr); err != nil {
			t.Fatal(err)
		}
		var parent []byte
		switch i % rounds {
		case 0:
			parent = fmt.Appendf(nil, `{"schema":"result-store/1","key":%q,"meta_len":%d,"proto_len":%d,"traffic_len":%d,"body_crc":%d}`,
				hdr.Key, hdr.Sections[0], hdr.Sections[1], hdr.Sections[2], hdr.BodyCRC)
			parent = append(parent, data[nl:]...)
		case 1:
			parent = jsonlEntry(t, store, "result-store/2", hdr.Key)
		case 2:
			parent = jsonlEntry(t, store, ResultStoreSchema, hdr.Key)
		case 3:
			parent = fixedWidthEntry(t, store, "result-store/4", hdr.Key)
		case 4:
			parent = fixedWidthEntry(t, store, ResultStoreSchema, hdr.Key)
		case 5:
			parent = bytes.Replace(data, []byte(ResultStoreSchema), []byte("result-store/5"), 1)
		case 6:
			parent = streamEntry(t, store, "result-store/6", hdr.Key)
		case 7:
			parent = fullTraceEntry(t, store, "result-store/7", hdr.Key)
		case 8:
			parent = txEntry(t, store, "result-store/8", hdr.Key)
		}
		if err := os.WriteFile(path, parent, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ctx2, out2, computes2 := runSynthetic(t, resumeRunner(t, storeDir, rounds, 2), rounds)
	if *computes2 != rounds {
		t.Fatalf("run over parent-format entries computed %d units, want %d", *computes2, rounds)
	}
	if st := ctx2.runner.store.Stats(); st.Corrupt != rounds {
		t.Fatalf("quarantined %d parent-format entries, want %d", st.Corrupt, rounds)
	}
	_, out3, computes3 := runSynthetic(t, resumeRunner(t, storeDir, rounds, 2), rounds)
	if *computes3 != 0 {
		t.Fatalf("run after the recompute computed %d units, want 0", *computes3)
	}
	for round := range out1 {
		if out2[round] != out1[round] || out3[round] != out1[round] {
			t.Fatalf("round %d results diverge: %d / %d / %d", round, out1[round], out2[round], out3[round])
		}
	}
}

// parentRoundMeta and parentDownloadMeta are the meta layouts
// result-store/7 entries were first written in, before a stored unit
// became its scenario.Round: one hand-kept sidecar for the round-based
// families and one for the download.
type parentRoundMeta struct {
	DurationNS   int64   `json:"duration_ns,omitempty"`
	Vehicles     int     `json:"vehicles,omitempty"`
	MeanSpeedMPS float64 `json:"mean_speed_mps,omitempty"`
	CrawlShare   float64 `json:"crawl_share,omitempty"`
	Samples      int     `json:"samples,omitempty"`
}

type parentDownloadMeta struct {
	Cars      []scenario.CarDownload `json:"cars"`
	LapTimeNS int64                  `json:"lap_time_ns"`
}

// TestStoredRoundsReadParentLayout: result-store/7 entries whose meta
// section holds the earlier layout — the testbed's round length, the
// download's cars and lap time, a traffic family's summary, citydemand's
// vehicle count — are served as hits, and apply to the same result as a
// fresh compute. This is what lets the stored form change without a
// schema bump. Each family's stored round is also its study view: the
// cold run applies the round the warm run loads, and it holds no drop
// and no reception but DATA (see storedTraces).
func TestStoredRoundsReadParentLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	t.Run("testbed", func(t *testing.T) {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = 1
		fresh, cold, served, stored := servedFromLayout(t, cfg, func(r *scenario.TestbedResult) any {
			return parentRoundMeta{DurationNS: int64(r.RoundDuration)}
		})
		if stored != nil {
			t.Fatalf("testbed round stored meta %s, want none", stored)
		}
		if served.RoundDuration != fresh.RoundDuration {
			t.Fatalf("round duration %v, want %v", served.RoundDuration, fresh.RoundDuration)
		}
		storedTraces(t, fresh.Rounds, cold.Rounds, served.Rounds)
	})
	t.Run("download", func(t *testing.T) {
		fresh, cold, served, _ := servedFromLayout(t, smallDownload(), func(r *scenario.DownloadResult) any {
			return parentDownloadMeta{Cars: r.Cars, LapTimeNS: int64(r.LapTime)}
		})
		if !reflect.DeepEqual(served.Cars, fresh.Cars) || served.LapTime != fresh.LapTime {
			t.Fatalf("served cars %+v lap %v, want %+v lap %v", served.Cars, served.LapTime, fresh.Cars, fresh.LapTime)
		}
		storedTraces(t, []*trace.Collector{fresh.Trace}, []*trace.Collector{cold.Trace}, []*trace.Collector{served.Trace})
	})
	t.Run("stopgo", func(t *testing.T) {
		cfg := scenario.DefaultStopGo()
		cfg.Rounds = 1
		fresh, cold, served, stored := servedFromLayout(t, cfg, func(r *scenario.StopGoResult) any {
			s := r.Traffic[0]
			return parentRoundMeta{MeanSpeedMPS: s.MeanSpeedMPS, CrawlShare: s.CrawlShare, Samples: s.Samples}
		})
		if s := fresh.Traffic[0]; s.MeanSpeedMPS == 0 || s.CrawlShare == 0 || s.Samples == 0 {
			t.Fatalf("summary %+v leaves a field zero, so its key goes unchecked", s)
		}
		sameMeta(t, stored, parentRoundMeta{MeanSpeedMPS: fresh.Traffic[0].MeanSpeedMPS,
			CrawlShare: fresh.Traffic[0].CrawlShare, Samples: fresh.Traffic[0].Samples})
		if !reflect.DeepEqual(served.Traffic, fresh.Traffic) {
			t.Fatalf("served summaries %+v, want %+v", served.Traffic, fresh.Traffic)
		}
		storedTraces(t, fresh.Rounds, cold.Rounds, served.Rounds)
	})
	t.Run("citydemand", func(t *testing.T) {
		cfg := scenario.DefaultCityDemand()
		cfg.Rounds = 1
		cfg.Cars = 2
		cfg.GridRows, cfg.GridCols = 6, 6
		cfg.BlockM = 120
		cfg.DemandScale = 3
		cfg.Duration = 40 * time.Second
		layout := func(r *scenario.CityDemandResult) any {
			s := r.Traffic[0]
			return parentRoundMeta{Vehicles: r.Vehicles[0], MeanSpeedMPS: s.MeanSpeedMPS, CrawlShare: s.CrawlShare, Samples: s.Samples}
		}
		fresh, cold, served, stored := servedFromLayout(t, cfg, layout)
		if fresh.Vehicles[0] == 0 {
			t.Fatal("no demand vehicles, so the vehicles key goes unchecked")
		}
		sameMeta(t, stored, layout(fresh))
		if !reflect.DeepEqual(served.Vehicles, fresh.Vehicles) || !reflect.DeepEqual(served.Traffic, fresh.Traffic) {
			t.Fatalf("served vehicles %v summaries %+v, want %v %+v", served.Vehicles, served.Traffic, fresh.Vehicles, fresh.Traffic)
		}
		storedTraces(t, fresh.Rounds, cold.Rounds, served.Rounds)
	})
}

// storedTraces fails t unless the traces a cold run applied equal, by
// their binary encoding, those a warm run loaded, and both are the study
// view of the traces fresh from scenario.RunRounds: DATA receptions only
// and no drop. fresh must hold some of each record the view leaves out,
// so the check is not vacuous.
func storedTraces(t *testing.T, fresh, cold, served []*trace.Collector) {
	t.Helper()
	sameTraces(t, cold, served)
	sameTraces(t, served, studyViews(fresh))
	for i, col := range fresh {
		if len(col.Drops) == 0 || !slices.ContainsFunc(col.Rx, isControlRx) {
			t.Fatalf("fresh trace %d holds %d drops and no control reception: nothing to project away", i, len(col.Drops))
		}
	}
	for i, col := range served {
		if len(col.Rx) == 0 {
			t.Fatalf("stored trace %d holds no DATA reception", i)
		}
		if len(col.Drops) != 0 || slices.ContainsFunc(col.Rx, isControlRx) {
			t.Fatalf("stored trace %d keeps %d drops or a control reception", i, len(col.Drops))
		}
	}
}

func isControlRx(r trace.RxRecord) bool { return r.Type != packet.TypeData }

// servedFromLayout runs cfg's one unit cold into an empty store, then
// rewrites the stored entry's meta section to the JSON of layout(fresh),
// where fresh is scenario.RunRounds(cfg), and runs cfg warm, which must
// load the unit. It returns fresh, the cold and the warm result and the
// meta section the cold run stored.
func servedFromLayout[C scenario.Family[C, R], R any, P interface {
	*C
	Base() *scenario.Common
}](t *testing.T, cfg C, layout func(fresh R) any) (fresh, cold, served R, stored []byte) {
	t.Helper()
	P(&cfg).Base().Arm = "p" // the arm the batch stamps on point "p"
	fresh, err := scenario.RunRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	cold, _, _ = storedPoint[C, R, P](t, storeDir, cfg)

	paths, err := filepath.Glob(filepath.Join(storeDir, "*.unit.jsonl"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("cold run stored %d entries (%v), want 1", len(paths), err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var hdr struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &hdr); err != nil {
		t.Fatal(err)
	}
	store, err := NewResultStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.Load(hdr.Key)
	if err != nil || res == nil {
		t.Fatalf("Load(%q) = (%v, %v)", hdr.Key, res, err)
	}
	stored = res.Meta
	if res.Meta, err = json.Marshal(layout(fresh)); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(hdr.Key, res); err != nil {
		t.Fatal(err)
	}

	served, computed, cached := storedPoint[C, R, P](t, storeDir, cfg)
	if computed != 0 || cached != 1 {
		t.Fatalf("run over the earlier layout computed %d and loaded %d units, want 0 and 1", computed, cached)
	}
	return fresh, cold, served, stored
}

// sameMeta fails t unless stored is the JSON of layout byte for byte.
func sameMeta(t *testing.T, stored []byte, layout any) {
	t.Helper()
	want, err := json.Marshal(layout)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, want) {
		t.Fatalf("stored meta %s, want the earlier layout's %s", stored, want)
	}
}

// jsonlEntry renders the entry stored under key as result-store/2 wrote
// it: the shared header under schema, the trace sections as JSONL.
func jsonlEntry(t *testing.T, store *ResultStore, schema, key string) []byte {
	t.Helper()
	return parentEntry(t, store, schema, key, func(col *trace.Collector) []byte {
		var buf bytes.Buffer
		if err := col.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}, nil)
}

// fixedWidthEntry renders the entry stored under key as result-store/4
// wrote it: the shared header under schema, the trace sections in the
// fixed-width binary encoding — per category a uint64 count, then
// records at their Go widths; a completion is its At and Node — which
// is all a synthetic unit's one completion needs.
func fixedWidthEntry(t *testing.T, store *ResultStore, schema, key string) []byte {
	t.Helper()
	le := binary.LittleEndian
	return parentEntry(t, store, schema, key, func(col *trace.Collector) []byte {
		if n := col.Counts(); n != (trace.Counts{Completed: n.Completed}) {
			t.Fatalf("fixed-width entry for %+v records", n)
		}
		out := make([]byte, 5*8)
		out = le.AppendUint64(out, uint64(len(col.Completed)))
		for _, r := range col.Completed {
			out = le.AppendUint16(le.AppendUint64(out, uint64(r.At)), uint16(r.Node))
		}
		return le.AppendUint64(out, 0)
	}, nil)
}

// streamEntry renders the entry stored under key as result-store/6
// wrote a traffic family's round: the shared header under schema, the
// protocol section in the binary encoding and a recorded traffic stream
// in the third section.
func streamEntry(t *testing.T, store *ResultStore, schema, key string) []byte {
	t.Helper()
	stream := &trace.Collector{Vehicles: []trace.VehicleRecord{{At: time.Second, Veh: 3, Link: 2, Arc: 40, Speed: 1.5}}}
	encode := func(col *trace.Collector) []byte { return parentBinary(t, col) }
	return parentEntry(t, store, schema, key, encode, parentBinary(t, stream))
}

// fullTraceEntry renders the entry stored under key as result-store/7
// wrote it: the shared header under schema and a full protocol trace,
// which adds to the stored records a HELLO reception in that schema's rx
// layout (At Dst Src AddrTo Flow Seq | Type RxPowerDBm SINRdB) and a
// DATA drop.
func fullTraceEntry(t *testing.T, store *ResultStore, schema, key string) []byte {
	t.Helper()
	return parentEntry(t, store, schema, key, func(col *trace.Collector) []byte {
		if len(col.Tx) != 0 || len(col.Rx) != 0 {
			t.Fatalf("full-trace entry over %+v records", col.Counts())
		}
		full := *col
		full.Drops = []trace.DropRecord{{At: time.Second, Dst: 1, Src: 100, Type: packet.TypeData, Flow: 1, Seq: 4, Reason: mac.DropChannel}}
		enc := parentBinary(t, &full) // enc[1] is the empty rx block's count
		rx := binary.AppendVarint([]byte{1}, int64(time.Second))
		rx = append(rx, 2, 3, 0, 3, 0, byte(packet.TypeHello)) // Dst 1, Src 2, AddrTo broadcast, Flow 2, Seq 0
		rx = binary.LittleEndian.AppendUint64(rx, math.Float64bits(-70))
		rx = binary.LittleEndian.AppendUint64(rx, math.Float64bits(20))
		return append(append(enc[:1:1], rx...), enc[2:]...)
	}, nil)
}

// txEntry renders the entry stored under key as result-store/8 wrote
// it: the shared header under schema and a protocol section that holds
// a DATA transmission record and no sent block.
func txEntry(t *testing.T, store *ResultStore, schema, key string) []byte {
	t.Helper()
	return parentEntry(t, store, schema, key, func(col *trace.Collector) []byte {
		withTx := *col
		withTx.Tx = []trace.TxRecord{{At: time.Second, Src: 100, Type: packet.TypeData, Dst: 1, Flow: 1, Seq: 4, Bytes: 1036}}
		return parentBinary(t, &withTx)
	}, nil)
}

// parentBinary is col's binary encoding as result-store/8 and earlier
// wrote it: the seven record blocks without the sent block, which col
// must leave empty.
func parentBinary(t *testing.T, col *trace.Collector) []byte {
	t.Helper()
	if !reflect.DeepEqual(col.Sent, trace.Sends{}) {
		t.Fatalf("parent encoding of a tally %+v", col.Sent)
	}
	enc := col.AppendBinary(nil)
	return enc[:len(enc)-2] // the empty sent block's two zero counts
}

// parentEntry renders the entry stored under key with the shared
// header under schema, the protocol section in encode's format and
// traffic as the third section, absent when nil.
func parentEntry(t *testing.T, store *ResultStore, schema, key string, encode func(*trace.Collector) []byte, traffic []byte) []byte {
	t.Helper()
	res, err := store.Load(key)
	if err != nil || res == nil {
		t.Fatalf("Load(%q) = (%v, %v)", key, res, err)
	}
	proto := encode(res.Protocol)
	body := append(append([]byte(nil), res.Meta...), proto...)
	trafficLen := -1
	if traffic != nil {
		body, trafficLen = append(body, traffic...), len(traffic)
	}
	line := fmt.Appendf(nil, `{"schema":%q,"key":%q,"sections":[%d,%d,%d],"body_crc":%d}`,
		schema, key, len(res.Meta), len(proto), trafficLen, crc32.ChecksumIEEE(body))
	return append(append(line, '\n'), body...)
}

// TestResumeByteIdentity is the simulation-backed acceptance check: a
// highway point resumed from a half-deleted store reproduces the cold
// run's protocol traces byte for byte, at a different worker count.
func TestResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	cfg := scenario.DefaultHighway()
	cfg.Rounds = 4
	cfg.Cars = 2
	cfg.Seed = 1
	storeDir := t.TempDir()

	run := func(workers int) [][]byte {
		r := resumeRunner(t, storeDir, cfg.Rounds, workers)
		c := &Context{runner: r, rec: &ExperimentRecord{Name: "resume-hw"}}
		b := c.Batch()
		var res *scenario.HighwayResult
		Add(b, "p", cfg, &res)
		if err := b.Go(); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(res.Rounds))
		for i, col := range res.Rounds {
			var buf bytes.Buffer
			if err := col.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}

	cold := run(1)

	// Kill half the store and resume with a different worker count.
	ents, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != cfg.Rounds {
		t.Fatalf("store holds %d entries after cold run, want %d", len(ents), cfg.Rounds)
	}
	for i, e := range ents {
		if i%2 == 0 {
			if err := os.Remove(filepath.Join(storeDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}

	resumed := run(3)
	for i := range cold {
		if len(cold[i]) == 0 {
			t.Fatalf("round %d trace is empty", i)
		}
		if !bytes.Equal(cold[i], resumed[i]) {
			t.Fatalf("round %d differs between cold and resumed runs", i)
		}
	}
}

// TestSharedStoreConcurrentRunners shards one synthetic sweep across
// two runners racing on a single store directory — the multi-process
// sharding contract, scaled down to goroutines so -race can see it.
func TestSharedStoreConcurrentRunners(t *testing.T) {
	const rounds = 16
	storeDir := t.TempDir()
	results := make([][]int, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := NewRunner(Options{
				Rounds: rounds, Seed: 1, OutDir: t.TempDir(), Workers: 4,
				ResultStore: storeDir,
			})
			if err != nil {
				t.Error(err)
				return
			}
			ctx := &Context{runner: r, rec: &ExperimentRecord{Name: "resume-probe"}}
			out := make([]int, rounds)
			b := ctx.Batch()
			b.addStoredRounds("synthetic", "p0", rounds, syntheticCfg{Label: "p0", Gain: 3},
				func(round int) (*UnitResult, error) {
					// Deterministic pure function of the unit identity, as the
					// store contract requires of every real scenario round.
					time.Sleep(time.Millisecond)
					return &UnitResult{Meta: []byte(fmt.Sprintf(`{"vehicles":%d}`, 3*round))}, nil
				},
				func(round int, res *UnitResult) error {
					r, err := loadRound(res)
					if err != nil {
						return err
					}
					out[round] = r.Vehicles
					return nil
				})
			if err := b.Go(); err != nil {
				t.Error(err)
				return
			}
			results[w] = out
		}()
	}
	wg.Wait()
	if results[0] == nil || results[1] == nil {
		t.Fatal("a shard failed")
	}
	for round := 0; round < rounds; round++ {
		want := 3 * round
		if results[0][round] != want || results[1][round] != want {
			t.Fatalf("round %d: shards read %d / %d, want %d",
				round, results[0][round], results[1][round], want)
		}
	}
	// Both shards raced the same keys; the store must hold one entry per
	// unit, each loadable.
	store, err := NewResultStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if sum := store.Summary(); sum.Entries != rounds {
		t.Fatalf("store holds %d entries, want %d", sum.Entries, rounds)
	}
}

// TestManifestDeterministic pins satellite 3: manifest.json is a pure
// function of the run's inputs — two runs at different wall-clock times
// and worker counts produce byte-identical manifests, while the
// timings sidecar carries the provenance that may differ.
func TestManifestDeterministic(t *testing.T) {
	registerOnce(Experiment{
		Name:  "reg-deterministic-probe",
		Title: "emits one output for the manifest determinism check",
		Run: func(c *Context) error {
			if err := c.RunUnits([]Unit{
				{Scenario: "s", Point: "p", Round: 0, Run: func() error { return nil }},
			}); err != nil {
				return err
			}
			return c.Emit("det.txt", OutputRaw, "payload\n")
		},
	})
	run := func(now time.Time, workers int) (manifest, timings []byte) {
		dir := t.TempDir()
		r, err := NewRunner(Options{
			Rounds: 2, Seed: 9, OutDir: dir, Workers: workers,
			Now: func() time.Time { return now },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run([]string{"reg-deterministic-probe"}); err != nil {
			t.Fatal(err)
		}
		manifest, err = os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		timings, err = os.ReadFile(filepath.Join(dir, "timings.json"))
		if err != nil {
			t.Fatal(err)
		}
		return manifest, timings
	}

	m1, _ := run(time.Unix(1000000000, 0).UTC(), 1)
	m2, tim2 := run(time.Unix(2000000000, 0).UTC(), 3)
	if !bytes.Equal(m1, m2) {
		t.Fatalf("manifest depends on wall clock or worker count:\n%s\nvs\n%s", m1, m2)
	}
	// The provenance lives in the sidecar instead.
	if !bytes.Contains(tim2, []byte("2033-05-18T03:33:20Z")) {
		t.Fatalf("timings.json does not carry the injected clock:\n%s", tim2)
	}
	if !bytes.Contains(tim2, []byte(`"workers": 3`)) {
		t.Fatalf("timings.json does not carry the worker count:\n%s", tim2)
	}
}

// registerOnce tolerates repeated registration across tests in this
// package sharing one process.
func registerOnce(e Experiment) {
	if _, ok := lookup(e.Name); !ok {
		Register(e)
	}
}
