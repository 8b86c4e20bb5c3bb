package scenario

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
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storeutil"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func quickTrafficGrid() TrafficGridConfig {
	cfg := DefaultTrafficGrid()
	cfg.Rounds = 1
	cfg.Cars = 2
	cfg.Background = 8
	cfg.GridRows, cfg.GridCols = 2, 2
	cfg.Duration = 40 * time.Second
	return cfg
}

func quickStopGo() StopGoConfig {
	cfg := DefaultStopGo()
	cfg.Rounds = 1
	cfg.Cars = 2
	cfg.Vehicles = 20
	cfg.RingM = 600
	cfg.Duration = 40 * time.Second
	cfg.PerturbAt = 10 * time.Second
	cfg.PerturbFor = 10 * time.Second
	return cfg
}

func traceBytes(t *testing.T, col *trace.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrafficRoundsDeterministic re-runs a round and expects identical
// bytes — the property harness workers rely on.
func TestTrafficRoundsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	cfg := quickTrafficGrid()
	a, _ := roundTraces(t, cfg, 0)
	b, _ := roundTraces(t, cfg, 0)
	if !bytes.Equal(traceBytes(t, a), traceBytes(t, b)) {
		t.Fatal("same round produced different traces")
	}
	if a.Counts().Rx == 0 {
		t.Fatal("platoon received nothing; scenario is inert")
	}
	// A different round diverges.
	c, _ := roundTraces(t, cfg, 1)
	if bytes.Equal(traceBytes(t, a), traceBytes(t, c)) {
		t.Fatal("distinct rounds produced identical traces")
	}
}

// TestTrafficCacheSharesStreamAcrossArms checks the sweep-reuse path:
// protocol-side knobs (coop on/off) must not recompute the traffic, so
// both arms of a sweep see the very same cached stream.
func TestTrafficCacheSharesStreamAcrossArms(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	on := quickStopGo()
	on.Coop = true
	off := quickStopGo()
	off.Coop = false

	colOn, streamOn := roundTraces(t, on, 0)
	_, streamOff := roundTraces(t, off, 0)
	if streamOn != streamOff {
		t.Fatal("coop arms did not share the cached traffic stream")
	}
	if streamOn.Summary().Samples == 0 {
		t.Fatal("cached world is empty")
	}
	if colOn.Counts().Rx == 0 {
		t.Fatal("platoon received nothing; scenario is inert")
	}
}

// TestStopGoWaveReachesPlatoon confirms the congestion narrative: the
// recorded stream shows platoon vehicles crawling some time after the
// upstream perturbation.
func TestStopGoWaveReachesPlatoon(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	cfg := quickStopGo()
	// Denser ring and a longer perturbation than the protocol quick
	// config, so the jam reliably backs up 125 m into the platoon.
	cfg.Vehicles = 24
	cfg.RingM = 500
	cfg.PerturbAt = 8 * time.Second
	cfg.PerturbFor = 18 * time.Second
	_, stream := roundTraces(t, cfg, 0)
	crawled := false
	for _, rec := range stream.Trace().Vehicles {
		if rec.Veh < cfg.Cars && rec.At > cfg.PerturbAt && rec.Speed < 2 {
			crawled = true
			break
		}
	}
	if !crawled {
		t.Fatal("no platoon vehicle crawled after the perturbation")
	}
}

func TestTrafficConfigValidation(t *testing.T) {
	bad := DefaultTrafficGrid()
	bad.Cars = 20 // cannot fit the start link
	if _, err := bad.Normalized(); err == nil {
		t.Fatal("oversized platoon accepted")
	}
	bad = DefaultTrafficGrid()
	bad.Background = 100000
	if _, err := bad.Round(0, &trace.Collector{}); err == nil {
		t.Fatal("over-capacity background accepted")
	}
	sg := DefaultStopGo()
	sg.Vehicles = sg.Cars + 1
	if _, err := sg.Normalized(); err == nil {
		t.Fatal("too-small ring population accepted")
	}
	sg = DefaultStopGo()
	sg.Vehicles = 1000
	if _, err := sg.Normalized(); err == nil {
		t.Fatal("bumper-locked ring accepted")
	}
}

// resetTrafficCache empties the in-memory tier so a later round is forced
// through whatever lower tier (the on-disk store) is installed.
func resetTrafficCache() {
	trafficCache.mu.Lock()
	trafficCache.m = make(map[string]*trafficTraceEntry)
	trafficCache.mu.Unlock()
}

// TestTrafficStoreServesByteIdenticalRounds is the precomputed-trace
// serving acceptance test: a round whose traffic world is loaded from the
// on-disk store must emit exactly the protocol trace of the round that
// computed the world, and the store must actually have been populated.
func TestTrafficStoreServesByteIdenticalRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	dir := t.TempDir()
	if err := SetTrafficTraceStore(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = SetTrafficTraceStore("")
		resetTrafficCache()
	}()
	resetTrafficCache()

	cfg := quickTrafficGrid()
	colComputed, streamComputed := roundTraces(t, cfg, 0)

	// A fresh in-memory cache forces the next identical round through the
	// disk tier, as a separate sweep process would be.
	resetTrafficCache()
	colLoaded, streamLoaded := roundTraces(t, cfg, 0)
	if !bytes.Equal(traceBytes(t, colComputed), traceBytes(t, colLoaded)) {
		t.Fatal("disk-served round's protocol trace differs from the computed round's")
	}
	if !bytes.Equal(traceBytes(t, streamComputed.Trace()), traceBytes(t, streamLoaded.Trace())) {
		t.Fatal("disk-served traffic world differs from the computed one")
	}

	// The store must hold exactly the computed world's file.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("store holds %d files, want 1", len(ents))
	}
}

// TestArmForksProtocolRandomnessNotTraffic pins the per-arm RNG split:
// two arms of one sweep must share the cached traffic world (pointer
// equality through the cache) yet see different channel randomness, while
// an empty arm reproduces the unforked byte stream.
func TestArmForksProtocolRandomnessNotTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	base := quickTrafficGrid()

	unforked, streamA := roundTraces(t, base, 0)
	again, _ := roundTraces(t, base, 0)
	if !bytes.Equal(traceBytes(t, unforked), traceBytes(t, again)) {
		t.Fatal("empty arm is not reproducible")
	}

	armed := base
	armed.Arm = "coop"
	forked, streamB := roundTraces(t, armed, 0)
	if streamA != streamB {
		t.Fatal("arms did not share the cached traffic stream")
	}
	if bytes.Equal(traceBytes(t, unforked), traceBytes(t, forked)) {
		t.Fatal("arm fork did not change the channel/protocol randomness")
	}

	other := base
	other.Arm = "nocoop"
	forked2, _ := roundTraces(t, other, 0)
	if bytes.Equal(traceBytes(t, forked), traceBytes(t, forked2)) {
		t.Fatal("two distinct arms drew identical randomness")
	}
}

// TestTrafficStoreRecomputesParentFormat: a stored traffic world with a
// JSONL body — as traffic-trace-store/3 wrote it — or a fixed-width
// binary body — as traffic-trace-store/4 wrote it — or either
// mislabelled with the current schema, is quarantined, recomputed into
// the current format with an identical round, and served from disk
// afterwards.
func TestTrafficStoreRecomputesParentFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	dir := t.TempDir()
	if err := SetTrafficTraceStore(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = SetTrafficTraceStore("")
		resetTrafficCache()
	}()
	resetTrafficCache()
	store := trafficStore

	cfg := quickTrafficGrid()
	col, stream := roundTraces(t, cfg, 0)
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace.jsonl"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("store holds %v (%v), want one world", paths, err)
	}
	path := paths[0]
	header := func() (hdr struct{ Schema, Key string }) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &hdr); err != nil {
			t.Fatal(err)
		}
		return hdr
	}
	key := header().Key

	jsonl, fixed := traceBytes(t, stream.Trace()), fixedWidthStream(t, stream.Trace())
	for i, parent := range []struct {
		schema string
		body   []byte
	}{
		{"traffic-trace-store/3", jsonl}, {traffic.StoreSchema, jsonl},
		{"traffic-trace-store/4", fixed}, {traffic.StoreSchema, fixed},
	} {
		schema, body := parent.schema, parent.body
		line := fmt.Appendf(nil, `{"schema":%q,"key":%q,"sections":[%d],"body_crc":%d}`,
			schema, key, len(body), crc32.ChecksumIEEE(body))
		if err := os.WriteFile(path, append(append(line, '\n'), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		resetTrafficCache()
		colAgain, streamAgain := roundTraces(t, cfg, 0)
		if !bytes.Equal(traceBytes(t, colAgain), traceBytes(t, col)) ||
			!bytes.Equal(traceBytes(t, streamAgain.Trace()), traceBytes(t, stream.Trace())) {
			t.Fatalf("%s: recomputed round differs from the first", schema)
		}
		if st := store.Stats(); st.Corrupt != uint64(i+1) || st.Saves != uint64(i+2) {
			t.Fatalf("%s: stats %+v, want the JSONL entry quarantined and re-saved", schema, st)
		}
		if _, err := os.Stat(path + storeutil.QuarantineSuffix); err != nil {
			t.Fatalf("%s: no post-mortem copy: %v", schema, err)
		}
		if got := header().Schema; got != traffic.StoreSchema {
			t.Fatalf("%s: recompute saved schema %q", schema, got)
		}
	}

	resetTrafficCache()
	hits := store.Stats().Hits
	roundTraces(t, cfg, 0)
	if st := store.Stats(); st.Hits != hits+1 {
		t.Fatalf("healed world not served from disk: %+v", st)
	}
}

// fixedWidthStream encodes a traffic stream as traffic-trace-store/4
// stored it: per category a uint64 record count, each vehicle record
// its At, Veh, Link and Lane as int64 and its floats' bits, all
// little-endian.
func fixedWidthStream(t *testing.T, stream *trace.Collector) []byte {
	t.Helper()
	if n := stream.Counts(); n != (trace.Counts{Vehicles: n.Vehicles}) {
		t.Fatalf("traffic stream holds protocol records: %+v", n)
	}
	le := binary.LittleEndian
	out := le.AppendUint64(make([]byte, 6*8), uint64(len(stream.Vehicles)))
	for _, r := range stream.Vehicles {
		for _, v := range []uint64{uint64(r.At), uint64(r.Veh), uint64(r.Link), uint64(r.Lane),
			math.Float64bits(r.Arc), math.Float64bits(r.Speed)} {
			out = le.AppendUint64(out, v)
		}
	}
	return out
}

// quickCityScale is the cityscale scenario shrunk to test size: the same
// world builder and replay path over far fewer vehicles and seconds.
func quickCityScale() CityScaleConfig {
	cfg := DefaultCityScale()
	cfg.Rounds, cfg.Cars, cfg.Background = 1, 2, 6
	cfg.GridRows, cfg.GridCols = 4, 4
	cfg.Duration = 8 * time.Second
	return cfg
}

// TestTrafficCacheHandsRecordingToReplay: the traffic cache holds the
// recorded world itself, and every arm replays it by reference. That
// world equals a fresh recording of the same inputs, survives the
// traffic store's World -> trace -> World round trip bit for bit with
// the same summary, and is what CityScaleRound serializes.
func TestTrafficCacheHandsRecordingToReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	resetTrafficCache()
	defer resetTrafficCache()
	cfg, err := quickCityScale().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	roundSeed := sim.SeedFor(cfg.Seed, "city-round-0")
	g, specs, err := cityScaleWorld(cfg, roundSeed)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := traffic.Config{Network: g.Network, Seed: roundSeed}
	ts, err := traffic.New(tcfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	ts.RunTo(cfg.Duration)
	recording := ts.World().Trace()

	var cached *traffic.World
	for _, arm := range []string{"coop", "nocoop"} {
		armCfg := cfg
		armCfg.Arm, armCfg.Coop = arm, arm == "coop"
		_, stream, err := CityScaleRound(armCfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		trafficCache.mu.Lock()
		e := trafficCache.m[traffic.TraceKey(tcfg, specs, cfg.Duration)]
		trafficCache.mu.Unlock()
		if e == nil || e.world == nil || (cached != nil && e.world != cached) {
			t.Fatalf("arm %s: round did not replay the cached world", arm)
		}
		cached = e.world
		if !reflect.DeepEqual(stream, recording) {
			t.Fatalf("arm %s: round serialized a world other than the recording", arm)
		}
	}

	st, err := traffic.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("city", cached); err != nil {
		t.Fatal(err)
	}
	loaded, err := st.Load("city")
	if err != nil || loaded == nil {
		t.Fatalf("Load = (%v, %v)", loaded, err)
	}
	if loaded, err = loaded.Bind(g.Network); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Trace(), recording) {
		t.Fatal("stored world serializes differently from the recording")
	}
	if got, want := loaded.Summary(), cached.Summary(); got != want || want != traceSummary(recording) {
		t.Fatalf("stored world summary %+v, cached %+v, recording %+v", got, want, traceSummary(recording))
	}
}

// traceSummary summarises a serialized world independently of
// traffic.Summary: speeds summed in record order.
func traceSummary(col *trace.Collector) traffic.Summary {
	var s traffic.Summary
	if len(col.Vehicles) == 0 {
		return s
	}
	var speedSum float64
	crawls := 0
	for _, r := range col.Vehicles {
		speedSum += r.Speed
		if r.Speed < 2 {
			crawls++
		}
	}
	s.Samples = len(col.Vehicles)
	s.MeanSpeedMPS = speedSum / float64(s.Samples)
	s.CrawlShare = float64(crawls) / float64(s.Samples)
	return s
}

// trafficFamily is a traffic family's config: its round also returns
// the world behind the round.
type trafficFamily[C any] interface {
	Normalized() (C, error)
	round(round int, col *trace.Collector) (Round, *traffic.World, error)
}

// roundTraces normalizes cfg and runs one round, returning its protocol
// trace and traffic world. The round's summary must be the summary of
// the world's serialized form.
func roundTraces[C trafficFamily[C]](t testing.TB, cfg C, round int) (*trace.Collector, *traffic.World) {
	t.Helper()
	cfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	r, world, err := cfg.round(round, &trace.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	if want := TrafficSummary(traceSummary(world.Trace())); r.TrafficSummary != want {
		t.Fatalf("round summary %+v, world summarises to %+v", r.TrafficSummary, want)
	}
	return r.Protocol, world
}

// TestCityScaleTraceKeyStable: two builds of one cityscale round's world,
// the second over a freshly built grid, key equally, so no pointer
// address or map order of the round's world building reaches its key.
func TestCityScaleTraceKeyStable(t *testing.T) {
	cfg, err := DefaultCityScale().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	const roundSeed = 11
	build := func() (*traffic.GridNet, string) {
		g, specs, err := cityScaleWorld(cfg, roundSeed)
		if err != nil {
			t.Fatal(err)
		}
		return g, traffic.TraceKey(traffic.Config{Network: g.Network, Seed: roundSeed}, specs, cfg.Duration)
	}
	first, key := build()
	gridNets.mu.Lock()
	shared := gridNets.m
	gridNets.m = make(map[string]*traffic.GridNet)
	gridNets.mu.Unlock()
	t.Cleanup(func() {
		gridNets.mu.Lock()
		gridNets.m = shared
		gridNets.mu.Unlock()
	})
	second, again := build()
	if first == second {
		t.Fatal("the second build reused the first grid")
	}
	if again != key {
		t.Fatal("two builds of one cityscale round's world key differently")
	}
}
