package scenario

import (
	"testing"
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
