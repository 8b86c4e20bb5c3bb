package harness

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/scenario"
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
			m, err := unmarshalRoundMeta(res)
			if err != nil {
				return err
			}
			if p := res.Protocol; p == nil || len(p.Completed) != 1 || p.Completed[0].Node != packet.NodeID(round+1) {
				return fmt.Errorf("round %d: protocol trace %+v", round, p)
			}
			out[round] = m.Vehicles
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
	digest := scenario.ConfigDigest(syntheticCfg{Label: "p0", Gain: 3})
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
// result-store/4 (fixed-width binary trace sections) and result-store/5
// (the current encoding, whose city traces also held the background
// beacons' events) — and JSONL or fixed-width bodies under the current
// schema are quarantined by the next run and recomputed into the current
// format with identical applied results; the run after that serves
// every unit.
func TestStoredRoundsRecomputeParentFormat(t *testing.T) {
	const rounds = 6
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
		switch i % 6 {
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
		}
		if err := os.WriteFile(path, parent, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ctx2, out2, computes2 := runSynthetic(t, resumeRunner(t, storeDir, rounds, 2), rounds)
	if *computes2 != rounds {
		t.Fatalf("run over parent-format entries computed %d units, want %d", *computes2, rounds)
	}
	if st := ctx2.runner.Store().Stats(); st.Corrupt != rounds {
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
	})
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
	})
}

// parentEntry renders the entry stored under key with the shared
// header under schema and the protocol section in encode's format.
func parentEntry(t *testing.T, store *ResultStore, schema, key string, encode func(*trace.Collector) []byte) []byte {
	t.Helper()
	res, err := store.Load(key)
	if err != nil || res == nil {
		t.Fatalf("Load(%q) = (%v, %v)", key, res, err)
	}
	proto := encode(res.Protocol)
	body := append(append([]byte(nil), res.Meta...), proto...)
	line := fmt.Appendf(nil, `{"schema":%q,"key":%q,"sections":[%d,%d,-1],"body_crc":%d}`,
		schema, key, len(res.Meta), len(proto), crc32.ChecksumIEEE(body))
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
	store, err := NewResultStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != cfg.Rounds {
		t.Fatalf("store holds %d entries after cold run, want %d", len(ents), cfg.Rounds)
	}
	for i, e := range ents {
		if i%2 == 0 {
			if err := os.Remove(filepath.Join(store.Dir(), e.Name())); err != nil {
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
					m, err := unmarshalRoundMeta(res)
					if err != nil {
						return err
					}
					out[round] = m.Vehicles
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
	if _, ok := Lookup(e.Name); !ok {
		Register(e)
	}
}
