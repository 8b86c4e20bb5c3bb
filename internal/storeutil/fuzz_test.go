package storeutil_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storeutil"
)

// FuzzStoreLoad writes arbitrary bytes as the entry for one key and
// loads them through both codecs of the one store. Load must never
// panic; an entry it rejects must be counted and quarantined, freeing
// the path for the recompute; an entry it accepts must survive a
// Save/Load round trip unchanged. The seed corpus
// (testdata/fuzz/FuzzStoreLoad) holds real Save outputs of both codecs,
// truncations of them and crafted headers.
func FuzzStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzLoad(t, resultCase, data)
		fuzzLoad(t, trafficCase, data)
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

// TestFuzzSeedsRejectBadWorlds pins two FuzzStoreLoad seeds the traffic
// codec must reject although their header and CRC are sound: a vehicle
// whose samples go back in time, and a negative lane.
func TestFuzzSeedsRejectBadWorlds(t *testing.T) {
	for seed, cause := range map[string]string{
		"traffic-backwards":     "time-major order",
		"traffic-negative-lane": "out of range",
	} {
		corpus := string(readFile(t, filepath.Join("testdata", "fuzz", "FuzzStoreLoad", seed)))
		quoted, ok := strings.CutPrefix(strings.TrimSpace(corpus), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: unreadable corpus entry (%v)", seed, err)
		}
		st := mustOpen(t, trafficCase, t.TempDir())
		writeFile(t, st.Path(goldenKey), []byte(data))
		if _, err := st.Load(goldenKey); err == nil || !strings.Contains(err.Error(), cause) {
			t.Fatalf("%s: Load = %v, want a %q rejection", seed, err, cause)
		}
	}
}
