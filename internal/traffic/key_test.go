package traffic

import (
	"reflect"
	"testing"
	"time"
)

func keyTestWorld(t *testing.T) (Config, []VehicleSpec) {
	t.Helper()
	ap := DefaultActuatedParams()
	g, err := NewGridNetwork(GridSpec{
		Rows: 2, Cols: 2, BlockM: 120, Lanes: 2, LaneWidthM: 3.2,
		SpeedLimitMPS: 14, Green: 20 * time.Second, AllRed: 4 * time.Second,
		Actuated: &ap,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Network: g.Network, Seed: 5}
	specs := []VehicleSpec{{
		Driver:  DefaultDriver(),
		Link:    0,
		Lane:    0,
		ArcM:    10,
		Route:   []LinkID{0},
		Caps:    []SpeedCap{{From: time.Second, To: 2 * time.Second, MaxMPS: 3}},
		EnterAt: time.Second,
	}}
	return cfg, specs
}

// perturbField changes one struct field to a different value, returning
// false for kinds it cannot handle (the caller fails the test then — a
// new field of an unknown kind means this helper needs extending;
// storeutil.Digest already walks every kind). Structs are not handled here; the tests recurse into them
// explicitly.
func perturbField(f reflect.Value) bool {
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 1)
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.New(f.Type().Elem()).Elem()))
	default:
		return false
	}
	return true
}

// TestTraceKeyCoversEveryConfigField is the key-collision regression
// test demanded by the store bugfix: perturb each field of the traffic
// config by reflection and require a different cache key, so that two
// configs differing ONLY in a newly added field can never collide on a
// key and silently serve a stale precomputed trace. A field this test
// cannot perturb fails loudly: whoever adds it must extend perturbField.
func TestTraceKeyCoversEveryConfigField(t *testing.T) {
	cfg, specs := keyTestWorld(t)
	const horizon = 30 * time.Second
	base := TraceKey(cfg, specs, horizon)

	skip := map[string]bool{
		"Network": true, // digested structurally; covered below
	}
	ct := reflect.TypeOf(cfg)
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if skip[name] {
			continue
		}
		mod := cfg
		f := reflect.ValueOf(&mod).Elem().Field(i)
		if !perturbField(f) {
			t.Fatalf("Config.%s has kind %v this test cannot perturb: extend perturbField", name, f.Kind())
		}
		if TraceKey(mod, specs, horizon) == base {
			t.Errorf("perturbing Config.%s did not change the trace key", name)
		}
	}
	if TraceKey(cfg, specs, horizon+time.Second) == base {
		t.Error("perturbing the horizon did not change the trace key")
	}
}

// TestTraceKeyCoversEverySpecField does the same for the vehicle specs,
// including the nested driver parameters, speed caps and the new
// demand-routing fields (EnterAt, ExitAtEnd, Route).
func TestTraceKeyCoversEverySpecField(t *testing.T) {
	cfg, specs := keyTestWorld(t)
	const horizon = 30 * time.Second
	base := TraceKey(cfg, specs, horizon)

	perturbSpecs := func(mutate func(*VehicleSpec)) string {
		mod := make([]VehicleSpec, len(specs))
		copy(mod, specs)
		// Deep-copy the slices a shallow struct copy would share.
		mod[0].Route = append([]LinkID(nil), specs[0].Route...)
		mod[0].Caps = append([]SpeedCap(nil), specs[0].Caps...)
		mutate(&mod[0])
		return TraceKey(cfg, mod, horizon)
	}

	st := reflect.TypeOf(VehicleSpec{})
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if name == "Driver" {
			continue // struct: recursed below
		}
		i := i
		key := perturbSpecs(func(s *VehicleSpec) {
			f := reflect.ValueOf(s).Elem().Field(i)
			if !perturbField(f) {
				t.Fatalf("VehicleSpec.%s has kind %v this test cannot perturb: extend perturbField", name, f.Kind())
			}
		})
		if key == base {
			t.Errorf("perturbing VehicleSpec.%s did not change the trace key", name)
		}
	}

	dt := reflect.TypeOf(DriverParams{})
	for i := 0; i < dt.NumField(); i++ {
		name := dt.Field(i).Name
		i := i
		key := perturbSpecs(func(s *VehicleSpec) {
			f := reflect.ValueOf(&s.Driver).Elem().Field(i)
			if !perturbField(f) {
				t.Fatalf("DriverParams.%s has kind %v this test cannot perturb", name, f.Kind())
			}
		})
		if key == base {
			t.Errorf("perturbing DriverParams.%s did not change the trace key", name)
		}
	}

	capT := reflect.TypeOf(SpeedCap{})
	for i := 0; i < capT.NumField(); i++ {
		name := capT.Field(i).Name
		i := i
		key := perturbSpecs(func(s *VehicleSpec) {
			f := reflect.ValueOf(&s.Caps[0]).Elem().Field(i)
			if !perturbField(f) {
				t.Fatalf("SpeedCap.%s has kind %v this test cannot perturb", name, f.Kind())
			}
		})
		if key == base {
			t.Errorf("perturbing SpeedCap.%s did not change the trace key", name)
		}
	}

	// One more vehicle must also change the key.
	if TraceKey(cfg, append(append([]VehicleSpec(nil), specs...), specs[0]), horizon) == base {
		t.Error("appending a vehicle did not change the trace key")
	}
}

// TestTraceKeyCoversNetworkAndActuation pins the structural network
// digest: geometry, topology, signal timing and — the issue's example —
// actuated-signal parameters must all reach the key.
func TestTraceKeyCoversNetworkAndActuation(t *testing.T) {
	const horizon = 30 * time.Second
	build := func(mutate func(spec *GridSpec)) string {
		ap := DefaultActuatedParams()
		spec := GridSpec{
			Rows: 2, Cols: 2, BlockM: 120, Lanes: 2, LaneWidthM: 3.2,
			SpeedLimitMPS: 14, Green: 20 * time.Second, AllRed: 4 * time.Second,
			Actuated: &ap,
		}
		if mutate != nil {
			mutate(&spec)
		}
		g, err := NewGridNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Network: g.Network, Seed: 5}
		return TraceKey(cfg, []VehicleSpec{{Driver: DefaultDriver(), Link: 0, ArcM: 10}}, horizon)
	}
	base := build(nil)

	cases := map[string]func(*GridSpec){
		"speed limit":        func(s *GridSpec) { s.SpeedLimitMPS = 12 },
		"block size":         func(s *GridSpec) { s.BlockM = 130 },
		"lane width":         func(s *GridSpec) { s.LaneWidthM = 3.4 },
		"actuated min green": func(s *GridSpec) { s.Actuated.MinGreen = 7 * time.Second },
		"actuated max green": func(s *GridSpec) { s.Actuated.MaxGreen = 40 * time.Second },
		"actuated all-red":   func(s *GridSpec) { s.Actuated.AllRed = 5 * time.Second },
		"actuated detector":  func(s *GridSpec) { s.Actuated.DetectorM = 55 },
		"fixed vs actuated":  func(s *GridSpec) { s.Actuated = nil },
	}
	for name, mutate := range cases {
		if build(mutate) == base {
			t.Errorf("perturbing the network's %s did not change the trace key", name)
		}
	}

	ta := reflect.TypeOf(ActuatedParams{})
	for i := 0; i < ta.NumField(); i++ {
		name := ta.Field(i).Name
		i := i
		key := build(func(s *GridSpec) {
			f := reflect.ValueOf(s.Actuated).Elem().Field(i)
			if !perturbField(f) {
				t.Fatalf("ActuatedParams.%s has kind %v this test cannot perturb", name, f.Kind())
			}
		})
		if key == base {
			t.Errorf("perturbing ActuatedParams.%s did not change the trace key", name)
		}
	}
}

// TestTraceKeyStableAcrossBuilds: two separate builds of equal inputs key
// equally, so no pointer address or map order reaches the key and a
// later process finds the worlds an earlier one stored.
func TestTraceKeyStableAcrossBuilds(t *testing.T) {
	const horizon = 30 * time.Second
	a, specsA := keyTestWorld(t)
	b, specsB := keyTestWorld(t)
	if a.Network == b.Network {
		t.Fatal("the two builds share one network")
	}
	if TraceKey(a, specsA, horizon) != TraceKey(b, specsB, horizon) {
		t.Fatal("two builds of one grid and population key differently")
	}
}
