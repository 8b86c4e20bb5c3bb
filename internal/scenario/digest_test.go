package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/carq"
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
		HeadwayM:    25,
		Modulation:  radio.DSSS2Mbps,
		RoadLengthM: 2000,
		APSetbackM:  10,
		CoopTime:    5 * time.Second,
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
// string, bool, duration — must change the digest, or the result store
// would serve a stale unit for the changed config.
func TestConfigDigestSeesEveryField(t *testing.T) {
	base := ConfigDigest(digestSampleConfig())
	perturb := map[string]func(*HighwayConfig){
		"Cars":     func(c *HighwayConfig) { c.Cars++ },
		"Seed":     func(c *HighwayConfig) { c.Seed++ },
		"Arm":      func(c *HighwayConfig) { c.Arm = "solo" },
		"SpeedMPS": func(c *HighwayConfig) { c.SpeedMPS += 1e-9 },
		"Coop":     func(c *HighwayConfig) { c.Coop = false },
		"CoopTime": func(c *HighwayConfig) { c.CoopTime += time.Nanosecond },
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

// TestRadioConfigFieldCount pins radio.Config's field list: ConfigDigest
// walks whatever struct it is handed, but scenario configs carry the
// channel settings as scalar fields rather than a radio.Config value, so
// a newly added channel knob must be consciously plumbed.
// Bump the count AND add the knob to Common, whose run method applies
// the shared channel settings to every family's channel builder (or to
// one family's builder, for a family-specific knob), when radio.Config
// grows.
func TestRadioConfigFieldCount(t *testing.T) {
	const want = 9
	if got := reflect.TypeOf(radio.Config{}).NumField(); got != want {
		t.Fatalf("radio.Config has %d fields, expected %d — plumb the new field through Common and update this count", got, want)
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
