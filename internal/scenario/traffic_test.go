package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
	if len(streamOn.Vehicles) == 0 {
		t.Fatal("cached stream is empty")
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
	for i := 0; i < cfg.Cars && !crawled; i++ {
		for _, rec := range stream.VehicleSeries(i) {
			if rec.At > cfg.PerturbAt && rec.Speed < 2 {
				crawled = true
				break
			}
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
	if _, err := bad.Round(0); err == nil {
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
	if err := SetTrafficTraceStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = SetTrafficTraceStore("", 0)
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
	if !bytes.Equal(traceBytes(t, streamComputed), traceBytes(t, streamLoaded)) {
		t.Fatal("disk-served traffic stream differs from the computed one")
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
// JSONL body — as traffic-trace-store/3 wrote it, or mislabelled with
// the current schema — is quarantined, recomputed into the current
// format with an identical round, and served from disk afterwards.
func TestTrafficStoreRecomputesParentFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}
	dir := t.TempDir()
	if err := SetTrafficTraceStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = SetTrafficTraceStore("", 0)
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

	for i, schema := range []string{"traffic-trace-store/3", traffic.StoreSchema} {
		body := traceBytes(t, stream)
		line := fmt.Appendf(nil, `{"schema":%q,"key":%q,"sections":[%d],"body_crc":%d}`,
			schema, key, len(body), crc32.ChecksumIEEE(body))
		if err := os.WriteFile(path, append(append(line, '\n'), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		resetTrafficCache()
		colAgain, streamAgain := roundTraces(t, cfg, 0)
		if !bytes.Equal(traceBytes(t, colAgain), traceBytes(t, col)) ||
			!bytes.Equal(traceBytes(t, streamAgain), traceBytes(t, stream)) {
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
// recorded collector itself, with no wire-format round trip in between.
// That collector equals ReadJSONL(WriteJSONL(recording)) record for
// record, so the round trip it replaced was an identity; and since every
// arm now shares it by reference, replaying two arms from the cache must
// leave it unchanged.
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
	recording, err := recordTrafficTrace(tcfg, specs, cfg.Duration)
	if err != nil {
		t.Fatal(err)
	}
	viaJSONL, err := trace.ReadJSONL(bytes.NewReader(traceBytes(t, recording)))
	if err != nil {
		t.Fatal(err)
	}

	var cached *trace.Collector
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
		if e == nil || e.col != stream {
			t.Fatalf("arm %s: round did not replay the cached collector", arm)
		}
		cached = e.col
	}

	if cached.Counts() != viaJSONL.Counts() || len(cached.Vehicles) == 0 {
		t.Fatalf("cached counts %+v, round-tripped recording %+v", cached.Counts(), viaJSONL.Counts())
	}
	for i, want := range viaJSONL.Vehicles {
		if got := cached.Vehicles[i]; got != want {
			t.Fatalf("vehicle record %d: cached %+v, round-tripped recording %+v", i, got, want)
		}
	}
}

// roundTraces normalizes cfg and runs one round, returning its protocol
// trace and traffic stream.
func roundTraces[C Family[C, R], R any](t testing.TB, cfg C, round int) (*trace.Collector, *trace.Collector) {
	t.Helper()
	r := runRound(t, cfg, round)
	return r.Protocol, r.Traffic
}
