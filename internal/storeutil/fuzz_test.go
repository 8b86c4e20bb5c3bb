package storeutil_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/storeutil"
)

// FuzzStoreLoad writes arbitrary bytes as the entry for one key and
// loads them through the result codec. Load must never panic; an entry
// it rejects must be counted and quarantined, freeing the path for the
// recompute; an entry it accepts must survive a Save/Load round trip
// unchanged. The seed corpus (testdata/fuzz/FuzzStoreLoad) holds real
// Save outputs, truncations of them and crafted headers.
func FuzzStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzLoad(t, resultCase, data)
	})
}

func fuzzLoad[T comparable](t *testing.T, c codecCase[T], data []byte) {
	st := mustOpen(t, c, t.TempDir())
	path := st.Path(goldenKey)
	writeFile(t, path, data)
	var zero T
	v, err := st.Load(goldenKey)
	if err != nil {
		if v != zero {
			t.Fatalf("%s: Load returned both a value and %v", c.name, err)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Fatalf("%s: rejected entry still at its path (%v): %v", c.name, serr, err)
		}
		if _, serr := os.Stat(path + storeutil.QuarantineSuffix); serr != nil {
			t.Fatalf("%s: rejected entry not quarantined (%v): %v", c.name, serr, err)
		}
		if s := st.Stats(); s.Corrupt != 1 || s.Misses != 1 || s.Hits != 0 {
			t.Fatalf("%s: stats %+v after one rejection", c.name, s)
		}
		return
	}
	if v == zero {
		t.Fatalf("%s: present entry loaded as a miss", c.name)
	}
	if err := st.Save(goldenKey, v); err != nil {
		t.Fatalf("%s: accepted entry does not re-save: %v", c.name, err)
	}
	first := readFile(t, path)
	again, err := st.Load(goldenKey)
	if err != nil || again == zero {
		t.Fatalf("%s: re-saved entry does not load: (%v, %v)", c.name, again, err)
	}
	if err := st.Save(goldenKey, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, path), first) {
		t.Fatalf("%s: accepted entry changes across a Save/Load round trip", c.name)
	}
}
