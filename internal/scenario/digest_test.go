package scenario

import (
	"reflect"
	"testing"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/radio"
)

func digestSampleConfig() HighwayConfig {
	return HighwayConfig{
		Common: Common{
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

// TestConfigDigestDeterministic: the digest is a pure function of the
// config value — two equal values digest identically.
func TestConfigDigestDeterministic(t *testing.T) {
	a, b := digestSampleConfig(), digestSampleConfig()
	da, db := ConfigDigest(a), ConfigDigest(b)
	if da != db {
		t.Fatalf("equal configs digest differently: %s vs %s", da, db)
	}
	if len(da) != 64 {
		t.Fatalf("digest %q is not sha256 hex", da)
	}
}

// TestConfigDigestSeesEveryField: perturbing any field — numeric,
// string, bool — must change the digest, or the result store
// would serve a stale unit for the changed config.
func TestConfigDigestSeesEveryField(t *testing.T) {
	base := ConfigDigest(digestSampleConfig())
	perturb := map[string]func(*HighwayConfig){
		"Cars":        func(c *HighwayConfig) { c.Cars++ },
		"Seed":        func(c *HighwayConfig) { c.Seed++ },
		"Arm":         func(c *HighwayConfig) { c.Arm = "solo" },
		"SpeedMPS":    func(c *HighwayConfig) { c.SpeedMPS += 1e-9 },
		"Coop":        func(c *HighwayConfig) { c.Coop = false },
		"RoadLengthM": func(c *HighwayConfig) { c.RoadLengthM++ },
		// Fields of the embedded Common ride along through the
		// reflection walk.
		"Common.PayloadBytes": func(c *HighwayConfig) { c.Common.PayloadBytes++ },
	}
	for field, mutate := range perturb {
		cfg := digestSampleConfig()
		mutate(&cfg)
		if got := ConfigDigest(cfg); got == base {
			t.Errorf("changing %s does not change the digest", field)
		}
	}
}

// TestConfigDigestSeesCommonEverywhere: every scenario family embeds
// Common, and each family's digest must see its fields — these are
// exactly the configs addStoredRounds keys stored results by.
func TestConfigDigestSeesCommonEverywhere(t *testing.T) {
	for _, f := range families() {
		base := f.config(keep)
		forked := f.config(func(c *Common) { c.Arm += "-forked" })
		if ConfigDigest(base) == ConfigDigest(forked) {
			t.Errorf("%s: Common.Arm invisible to the config digest", f.name)
		}
	}
}

// TestLayerConfigFieldCount pins the settable fields of the configs below
// the scenario layer. The rule is TestScenarioConfigFieldCount's: a field
// exists only while non-test code sets it, or a test shrinks a world with
// it; every value nothing varies is a constant in its package (the
// path-loss law's carrier and reference distance in radio, the 802.11b
// contention timing and capture margin in mac, the protocol timing in
// carq). Scenario configs carry none of these structs, so ConfigDigest
// cannot see a new field: it must be set where the structs are built —
//   - radio.Config: the per-family channel builders cityScaleChannel
//     (citygrid.go), corridorChannel, highwayChannel, testbedChannel and
//     trafficGridChannel;
//   - mac.Config: mac.DefaultConfig, adjusted in testbed.go;
//   - carq.Config: carq.DefaultConfig through Common.carqConfig
//     (family.go), adjusted in testbed.go and twoway.go;
//   - ap.Config: apConfigWindow (testbed.go) and the literals in
//     corridor.go and download.go.
//
// Add a field only with a caller that sets it, and update its count here.
func TestLayerConfigFieldCount(t *testing.T) {
	want := map[reflect.Type]int{
		reflect.TypeOf(radio.Config{}): 8,
		reflect.TypeOf(mac.Config{}):   4,
		reflect.TypeOf(carq.Config{}):  10,
		reflect.TypeOf(ap.Config{}):    10,
	}
	for typ, n := range want {
		if got := typ.NumField(); got != n {
			t.Errorf("%s has %d fields, expected %d", typ, got, n)
		}
	}
}

// TestScenarioConfigFieldCount pins the settable fields of Common,
// CityGrid and the nine family configs, embedded structs excluded (they
// count through their own entry). A value is a field only while a study,
// example or CLI varies it, or a test shrinks a world with it; every
// other value is a constant beside its family. Add a field only with a
// caller that sets it, and update its count here.
func TestScenarioConfigFieldCount(t *testing.T) {
	want := map[reflect.Type]int{
		reflect.TypeOf(Common{}):            6,
		reflect.TypeOf(CityGrid{}):          4,
		reflect.TypeOf(TestbedConfig{}):     10,
		reflect.TypeOf(HighwayConfig{}):     3,
		reflect.TypeOf(CorridorConfig{}):    4,
		reflect.TypeOf(TwoWayConfig{}):      4,
		reflect.TypeOf(DownloadConfig{}):    3,
		reflect.TypeOf(TrafficGridConfig{}): 6,
		reflect.TypeOf(StopGoConfig{}):      6,
		reflect.TypeOf(CityScaleConfig{}):   2,
		reflect.TypeOf(CityDemandConfig{}):  3,
	}
	total := 0
	for typ, n := range want {
		got := 0
		for i := 0; i < typ.NumField(); i++ {
			if !typ.Field(i).Anonymous {
				got++
			}
		}
		if got != n {
			t.Errorf("%s has %d fields, expected %d", typ.Name(), got, n)
		}
		total += got
	}
	if total != 51 {
		t.Errorf("scenario configs hold %d fields, expected 51", total)
	}
}

// TestConfigDigestDistinguishesInterfaceImpls: two Selection policies
// with identical field values must not alias — the dynamic type is part
// of the digest.
func TestConfigDigestDistinguishesInterfaceImpls(t *testing.T) {
	best := TestbedConfig{Selection: carq.SelectBestK{K: 2}}
	fresh := TestbedConfig{Selection: carq.SelectFreshestK{K: 2}}
	if ConfigDigest(best) == ConfigDigest(fresh) {
		t.Fatal("distinct Selection implementations alias in the digest")
	}
	if ConfigDigest(best) == ConfigDigest(TestbedConfig{Selection: carq.SelectBestK{K: 3}}) {
		t.Fatal("Selection field values invisible to the digest")
	}
	if ConfigDigest(best) == ConfigDigest(TestbedConfig{}) {
		t.Fatal("nil vs non-nil Selection aliases in the digest")
	}
}

// TestConfigDigestDistinguishesFuncs: function-valued fields digest by
// symbol, so swapping one named hook for another changes the key.
func TestConfigDigestDistinguishesFuncs(t *testing.T) {
	type hooked struct {
		Tune func(int) int
	}
	double := func(x int) int { return 2 * x }
	triple := func(x int) int { return 3 * x }
	d0 := ConfigDigest(hooked{})
	d1 := ConfigDigest(hooked{Tune: double})
	d2 := ConfigDigest(hooked{Tune: triple})
	if d0 == d1 || d1 == d2 {
		t.Fatalf("func fields invisible to digest: nil=%s double=%s triple=%s", d0, d1, d2)
	}
	if ConfigDigest(hooked{Tune: double}) != d1 {
		t.Fatal("same func digests unstably")
	}
}

// TestConfigDigestCollections: slices, maps and pointers participate,
// including the nil/empty distinction and map order independence.
func TestConfigDigestCollections(t *testing.T) {
	type coll struct {
		Xs []int
		M  map[string]float64
		P  *int
	}
	three := 3
	if ConfigDigest(coll{Xs: nil}) == ConfigDigest(coll{Xs: []int{}}) {
		t.Error("nil and empty slice alias")
	}
	if ConfigDigest(coll{Xs: []int{1, 2}}) == ConfigDigest(coll{Xs: []int{2, 1}}) {
		t.Error("slice order invisible")
	}
	if ConfigDigest(coll{M: map[string]float64{"a": 1, "b": 2}}) !=
		ConfigDigest(coll{M: map[string]float64{"b": 2, "a": 1}}) {
		t.Error("map digest depends on insertion order")
	}
	if ConfigDigest(coll{P: &three}) == ConfigDigest(coll{}) {
		t.Error("pointer field invisible")
	}
}
