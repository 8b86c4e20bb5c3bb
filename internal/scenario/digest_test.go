package scenario

import (
	"reflect"
	"testing"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/radio"
	"repro/internal/storeutil"
)

// TestConfigDigestSeesCommonEverywhere: every scenario family embeds
// Common, and each family's config digest (storeutil.Digest) must see
// its fields — these are exactly the configs addStoredRounds keys stored
// results by — except the recording mode StudyRound sets, which changes
// no stored round, so a study round keys the unit a full round does.
func TestConfigDigestSeesCommonEverywhere(t *testing.T) {
	for _, f := range families() {
		base := f.config(keep)
		forked := f.config(func(c *Common) { c.Arm += "-forked" })
		if storeutil.Digest(base) == storeutil.Digest(forked) {
			t.Errorf("%s: Common.Arm invisible to the config digest", f.name)
		}
		if study := f.config(func(c *Common) { c.study = true }); storeutil.Digest(base) != storeutil.Digest(study) {
			t.Errorf("%s: the study recording mode changes the config digest", f.name)
		}
	}
}

// TestLayerConfigFieldCount pins the settable fields of the configs below
// the scenario layer. The rule is TestScenarioConfigFieldCount's: a field
// exists only while non-test code sets it, or a test shrinks a world with
// it; every value nothing varies is a constant in its package (the
// path-loss law's carrier and reference distance in radio, the 802.11b
// contention timing and capture margin in mac, the protocol timing in
// carq). Scenario configs carry none of these structs, so the config
// digest (storeutil.Digest) cannot see a new field: it must be set where
// the structs are built —
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
		reflect.TypeOf(Common{}):            7,
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
	if total != 52 {
		t.Errorf("scenario configs hold %d fields, expected 52", total)
	}
}
