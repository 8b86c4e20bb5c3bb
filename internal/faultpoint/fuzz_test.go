package faultpoint

import "testing"

// FuzzParseSpec feeds arbitrary text to the -faultpoints grammar.
// Neither parseSpec nor ArmSpecs may panic, and every spec parseSpec
// accepts must name a point and arm it. Seeds are the schedules the
// README and the CI soak and crash-resume scripts arm, and one that
// names points no code declares any more (the retired traffic store's),
// which arms without effect.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"harness.store.save.write=short:20@hit=2",
		"harness.unit=panic@hit=2",
		"harness.unit=panic@count=2",
		"harness.unit=sleep:600s@hit=4",
		"harness.store.load=error:soak@seed=2:8@count=2,harness.store.save.write=short:200@seed=2:8",
		"traffic.store.load=error:soak@seed=2:8@count=2,traffic.store.save.write=short:200@seed=2:8",
		" =panic",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		t.Cleanup(DisarmAll)
		_ = ArmSpecs(s)
		name, spec, err := parseSpec(s)
		if err != nil {
			return
		}
		if name == "" {
			t.Fatalf("ParseSpec(%q) accepted an empty name", s)
		}
		if err := New(name).arm(spec); err != nil {
			t.Fatalf("ParseSpec(%q) accepted %+v, which Arm rejects: %v", s, spec, err)
		}
	})
}
