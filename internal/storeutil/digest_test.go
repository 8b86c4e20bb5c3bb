package storeutil_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/carq"
	"repro/internal/scenario"
	"repro/internal/storeutil"
)

func digestSampleConfig() scenario.HighwayConfig {
	return scenario.HighwayConfig{
		Common: scenario.Common{
			Cars:             10,
			Seed:             42,
			Arm:              "coop",
			PacketsPerSecond: 10,
			PayloadBytes:     500,
			Coop:             true,
		},
		Rounds:      3,
		SpeedMPS:    8.3,
		RoadLengthM: 2000,
	}
}

// TestDigestDeterministic: the digest is a pure function of the value —
// two equal values digest identically.
func TestDigestDeterministic(t *testing.T) {
	a, b := digestSampleConfig(), digestSampleConfig()
	da, db := storeutil.Digest(a), storeutil.Digest(b)
	if da != db {
		t.Fatalf("equal configs digest differently: %s vs %s", da, db)
	}
	if len(da) != 64 {
		t.Fatalf("digest %q is not sha256 hex", da)
	}
}

// TestDigestSeesEveryField: perturbing any field — numeric, string,
// bool — must change the digest, or the result store would serve a
// stale unit for the changed config.
func TestDigestSeesEveryField(t *testing.T) {
	base := storeutil.Digest(digestSampleConfig())
	perturb := map[string]func(*scenario.HighwayConfig){
		"Cars":        func(c *scenario.HighwayConfig) { c.Cars++ },
		"Seed":        func(c *scenario.HighwayConfig) { c.Seed++ },
		"Arm":         func(c *scenario.HighwayConfig) { c.Arm = "solo" },
		"SpeedMPS":    func(c *scenario.HighwayConfig) { c.SpeedMPS += 1e-9 },
		"Coop":        func(c *scenario.HighwayConfig) { c.Coop = false },
		"RoadLengthM": func(c *scenario.HighwayConfig) { c.RoadLengthM++ },
		// Fields of the embedded Common ride along through the
		// reflection walk.
		"Common.PayloadBytes": func(c *scenario.HighwayConfig) { c.Common.PayloadBytes++ },
	}
	for field, mutate := range perturb {
		cfg := digestSampleConfig()
		mutate(&cfg)
		if got := storeutil.Digest(cfg); got == base {
			t.Errorf("changing %s does not change the digest", field)
		}
	}
	// The value's type is part of the digest: two types with equal
	// serialisations do not alias.
	type mirror scenario.HighwayConfig
	if storeutil.Digest(mirror(digestSampleConfig())) == base {
		t.Error("a value's type is invisible to the digest")
	}
}

// TestDigestDistinguishesInterfaceImpls: two Selection policies with
// identical field values must not alias — the dynamic type is part of
// the digest.
func TestDigestDistinguishesInterfaceImpls(t *testing.T) {
	best := scenario.TestbedConfig{Selection: carq.SelectBestK{K: 2}}
	fresh := scenario.TestbedConfig{Selection: carq.SelectFreshestK{K: 2}}
	if storeutil.Digest(best) == storeutil.Digest(fresh) {
		t.Fatal("distinct Selection implementations alias in the digest")
	}
	if storeutil.Digest(best) == storeutil.Digest(scenario.TestbedConfig{Selection: carq.SelectBestK{K: 3}}) {
		t.Fatal("Selection field values invisible to the digest")
	}
	if storeutil.Digest(best) == storeutil.Digest(scenario.TestbedConfig{}) {
		t.Fatal("nil vs non-nil Selection aliases in the digest")
	}
}

// TestDigestDistinguishesFuncs: function-valued fields digest by
// symbol, so swapping one named hook for another changes the key.
func TestDigestDistinguishesFuncs(t *testing.T) {
	type hooked struct {
		Tune func(int) int
	}
	double := func(x int) int { return 2 * x }
	triple := func(x int) int { return 3 * x }
	d0 := storeutil.Digest(hooked{})
	d1 := storeutil.Digest(hooked{Tune: double})
	d2 := storeutil.Digest(hooked{Tune: triple})
	if d0 == d1 || d1 == d2 {
		t.Fatalf("func fields invisible to digest: nil=%s double=%s triple=%s", d0, d1, d2)
	}
	if storeutil.Digest(hooked{Tune: double}) != d1 {
		t.Fatal("same func digests unstably")
	}
}

// TestDigestCollections: slices, maps and pointers participate,
// including the nil/empty distinction, map order independence and
// pointer-address independence.
func TestDigestCollections(t *testing.T) {
	type coll struct {
		Xs []int
		M  map[string]float64
		P  *int
	}
	three, otherThree := 3, 3
	if storeutil.Digest(coll{Xs: nil}) == storeutil.Digest(coll{Xs: []int{}}) {
		t.Error("nil and empty slice alias")
	}
	if storeutil.Digest(coll{Xs: []int{1, 2}}) == storeutil.Digest(coll{Xs: []int{2, 1}}) {
		t.Error("slice order invisible")
	}
	if storeutil.Digest(coll{M: map[string]float64{"a": 1, "b": 2}}) !=
		storeutil.Digest(coll{M: map[string]float64{"b": 2, "a": 1}}) {
		t.Error("map digest depends on insertion order")
	}
	// Each walk ranges over the map in a fresh random order.
	wide := coll{M: map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 7, "h": 8}}
	for i, want := 0, storeutil.Digest(wide); i < 20; i++ {
		if storeutil.Digest(wide) != want {
			t.Fatal("map digest depends on iteration order")
		}
	}
	if storeutil.Digest(coll{M: map[string]float64{"a": 1, "b": 2}}) ==
		storeutil.Digest(coll{M: map[string]float64{"a": 2, "b": 1}}) {
		t.Error("map values invisible")
	}
	if storeutil.Digest(coll{P: &three}) == storeutil.Digest(coll{}) {
		t.Error("pointer field invisible")
	}
	if storeutil.Digest(coll{P: &three}) != storeutil.Digest(coll{P: &otherThree}) {
		t.Error("pointer address leaks into the digest")
	}
}

// bigDigestValue serialises to about 0.9 MB, many digest chunks: a long
// float slice, many short strings and a map whose 50 entries hold
// slices, so a map is buffered whole between streamed chunks.
func bigDigestValue() any {
	type big struct {
		Xs    []float64
		Names []string
		M     map[int][]int32
	}
	v := big{Xs: make([]float64, 100_000), M: map[int][]int32{}}
	for i := range v.Xs {
		v.Xs[i] = float64(i) / 7
	}
	for i := 0; i < 2000; i++ {
		v.Names = append(v.Names, fmt.Sprint("link-", i))
	}
	for k := 0; k < 50; k++ {
		v.M[k] = make([]int32, 200)
		for i := range v.M[k] {
			v.M[k][i] = int32(k * i)
		}
	}
	return v
}

// TestDigestStreamsLargeValues: a value whose serialisation is many
// chunks digests to the hash of the whole serialisation (the pin is the
// digest that buffered it all before hashing), while one Digest
// allocates under 256 KiB, the map's entries included (174 KiB
// measured), where buffering the whole serialisation allocated 4.0 MiB.
func TestDigestStreamsLargeValues(t *testing.T) {
	v := bigDigestValue()
	const pin = "b42bab862912f746ae0abd28e434a6bcc47e56a032a592acaf5f94028c5e775c"
	if got := storeutil.Digest(v); got != pin {
		t.Fatalf("Digest = %s, want the whole-buffer digest %s", got, pin)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		storeutil.Digest(v)
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 256<<10 {
		t.Fatalf("one Digest of a large value allocated %d bytes, bound %d", perRun, 256<<10)
	}
}
