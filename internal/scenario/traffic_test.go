package scenario

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
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

// resetTrafficCache empties the traffic cache, so a later round records
// its world again.
func resetTrafficCache() {
	trafficCache.mu.Lock()
	trafficCache.m = make(map[string]*trafficTraceEntry)
	trafficCache.mu.Unlock()
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
// world equals a fresh recording of the same inputs, summarises to its
// serialized form's summary, and is what CityScaleRound serializes.
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

	if got, want := cached.Summary(), traceSummary(recording); got != want {
		t.Fatalf("cached world summary %+v, recording %+v", got, want)
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
