package scenario

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/radio"
	"repro/internal/storeutil"
)

// TestConfigDigestSeesCommonEverywhere: every scenario family embeds
// Common, and each family's config digest (storeutil.Digest) must see
// every one of its fields — these are exactly the configs
// addStoredRounds keys stored results by. Each field is perturbed by
// reflection, so a field added to Common is checked without editing
// this test; a kind the test cannot perturb fails loudly.
func TestConfigDigestSeesCommonEverywhere(t *testing.T) {
	common := reflect.TypeOf(Common{})
	for _, f := range families() {
		base := storeutil.Digest(f.config(keep))
		for i := 0; i < common.NumField(); i++ {
			name := common.Field(i).Name
			perturbed := f.config(func(c *Common) {
				// NewAt makes an unexported field settable too.
				field := reflect.ValueOf(c).Elem().Field(i)
				field = reflect.NewAt(field.Type(), unsafe.Pointer(field.UnsafeAddr())).Elem()
				if !perturbCommonField(field) {
					t.Fatalf("Common.%s has kind %v this test cannot perturb: extend perturbCommonField", name, field.Kind())
				}
			})
			if storeutil.Digest(perturbed) == base {
				t.Errorf("%s: Common.%s invisible to the config digest", f.name, name)
			}
		}
	}
}

// perturbCommonField changes f to another value of its kind and reports
// whether it could.
func perturbCommonField(f reflect.Value) bool {
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 1)
	case reflect.String:
		f.SetString(f.String() + "-perturbed")
	default:
		return false
	}
	return true
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
