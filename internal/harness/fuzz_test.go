package harness

import (
	"os"
	"testing"

	"repro/internal/storeutil"
)

// fuzzStoreKey is the unit key every FuzzResultStoreLoad input is stored
// under; the committed seed corpus embeds it in its headers.
const fuzzStoreKey = "result-store/fuzz|seed=1|round=0"

// FuzzResultStoreLoad feeds arbitrary bytes to the result store as the
// on-disk entry for one key. Load must never panic; an entry it rejects
// must be counted and quarantined, freeing the path for the recompute;
// an entry it accepts must survive a Save/Load round trip. The seed
// corpus (testdata/fuzz/FuzzResultStoreLoad) holds a real Save output,
// truncations of it and crafted headers.
func FuzzResultStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := NewResultStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := store.Path(fuzzStoreKey)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := store.Load(fuzzStoreKey)
		if err != nil {
			if res != nil {
				t.Fatalf("Load returned both a result and %v", err)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Fatalf("rejected entry still at its path (%v): %v", serr, err)
			}
			if _, serr := os.Stat(path + storeutil.QuarantineSuffix); serr != nil {
				t.Fatalf("rejected entry not quarantined (%v): %v", serr, err)
			}
			if got := store.Stats().Corrupt; got != 1 {
				t.Fatalf("corrupt count %d after one rejection", got)
			}
			return
		}
		if res == nil {
			t.Fatal("present entry loaded as a miss")
		}
		if err := store.Save(fuzzStoreKey, res); err != nil {
			t.Fatalf("accepted entry does not re-save: %v", err)
		}
		if again, err := store.Load(fuzzStoreKey); err != nil || again == nil {
			t.Fatalf("re-saved entry does not load: (%v, %v)", again, err)
		}
	})
}
