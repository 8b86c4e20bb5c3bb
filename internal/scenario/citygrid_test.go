package scenario

import (
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestCityGridNormalization drives the shared city-grid validation
// through both city families: each rejects the same bad grids.
func TestCityGridNormalization(t *testing.T) {
	type edit func(*Common, *CityGrid)
	families := []struct {
		name      string
		normalize func(edit) error
	}{
		{"cityscale", func(e edit) error {
			cfg := DefaultCityScale()
			e(&cfg.Common, &cfg.CityGrid)
			_, err := cfg.Normalized()
			return err
		}},
		{"citydemand", func(e edit) error {
			cfg := DefaultCityDemand()
			e(&cfg.Common, &cfg.CityGrid)
			_, err := cfg.Normalized()
			return err
		}},
	}
	rejects := []struct {
		name string
		edit edit
	}{
		{"3-row grid", func(_ *Common, g *CityGrid) { g.GridRows = 3 }},
		{"zero duration", func(_ *Common, g *CityGrid) { g.Duration = 0 }},
		// Ten cars need a 136 m lead arc; a 100 m block leaves 90.
		{"platoon longer than a block", func(c *Common, g *CityGrid) { c.Cars, g.BlockM = 10, 100 }},
	}
	for _, f := range families {
		for _, r := range rejects {
			if err := f.normalize(r.edit); err == nil {
				t.Errorf("%s: %s accepted", f.name, r.name)
			}
		}
	}
}

// TestGridNetworkShared: rounds over one grid spec share one read-only
// build — the actuated parameters compare by value, not by the caller's
// pointer — and concurrent rounds over it run clean (this test is what
// the race detector checks the sharing with).
func TestGridNetworkShared(t *testing.T) {
	spec := cityGridSpec(8, 8, 200)
	a, errA := gridNetwork(spec)
	b, errB := gridNetwork(spec)
	if errA != nil || errB != nil || a != b {
		t.Fatalf("same spec built twice: %p (%v) vs %p (%v)", a, errA, b, errB)
	}
	act := func(allRed time.Duration) traffic.GridSpec {
		s := spec
		p := traffic.DefaultActuatedParams()
		p.AllRed = allRed
		s.Actuated = &p
		return s
	}
	c, _ := gridNetwork(act(4 * time.Second))
	d, _ := gridNetwork(act(4 * time.Second))
	e, _ := gridNetwork(act(3 * time.Second))
	if c == nil || c != d || c == a || c == e {
		t.Fatalf("actuated grids: %p %p %p (fixed %p); want the first two shared and the rest distinct", c, d, e, a)
	}

	cfg := DefaultCityDemand()
	cfg.Cars = 4
	cfg.GridRows, cfg.GridCols = 8, 8
	cfg.Duration = 20 * time.Second
	cfg.Rounds = 2
	var wg sync.WaitGroup
	for round := 0; round < cfg.Rounds; round++ {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			if r, err := cfg.Round(round, &trace.Collector{}); err != nil || r.Vehicles == 0 {
				t.Errorf("round %d: %d demand vehicles, %v", round, r.Vehicles, err)
			}
		}(round)
	}
	wg.Wait()
}
