package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/radio"
)

// TestCityGridNormalization drives the shared city-grid validation
// through both city families: each rejects the same bad grids and fills
// the same defaults, differing only in the default grid side.
func TestCityGridNormalization(t *testing.T) {
	type edit func(*Common, *CityGrid)
	families := []struct {
		name      string
		side      int
		normalize func(edit) (Common, CityGrid, error)
	}{
		{"cityscale", 16, func(e edit) (Common, CityGrid, error) {
			cfg := DefaultCityScale()
			e(&cfg.Common, &cfg.CityGrid)
			n, err := cfg.Normalized()
			return n.Common, n.CityGrid, err
		}},
		{"citydemand", 12, func(e edit) (Common, CityGrid, error) {
			cfg := DefaultCityDemand()
			e(&cfg.Common, &cfg.CityGrid)
			n, err := cfg.Normalized()
			return n.Common, n.CityGrid, err
		}},
	}
	rejects := []struct {
		name string
		edit edit
	}{
		{"3-row grid", func(_ *Common, g *CityGrid) { g.GridRows = 3 }},
		{"3 APs", func(_ *Common, g *CityGrid) { g.APs = 3 }},
		{"9 APs", func(_ *Common, g *CityGrid) { g.APs = 9 }},
		// Ten cars need a 136 m lead arc; a 100 m block leaves 90.
		{"platoon longer than a block", func(c *Common, g *CityGrid) { c.Cars, g.BlockM = 10, 100 }},
	}
	for _, f := range families {
		for _, r := range rejects {
			if _, _, err := f.normalize(r.edit); err == nil {
				t.Errorf("%s: %s accepted", f.name, r.name)
			}
		}

		c, g, err := f.normalize(func(c *Common, g *CityGrid) {
			*g = CityGrid{}
			c.PacketsPerSecond, c.PayloadBytes = 0, 0
		})
		if err != nil {
			t.Fatalf("%s: zero grid rejected: %v", f.name, err)
		}
		if c.PacketsPerSecond != 5 || c.PayloadBytes != 1000 {
			t.Errorf("%s: stream defaults %v pkt/s, %d B", f.name, c.PacketsPerSecond, c.PayloadBytes)
		}
		if g.Modulation.Name != radio.DSSS1Mbps.Name {
			t.Errorf("%s: default modulation %q", f.name, g.Modulation.Name)
		}
		g.Modulation = radio.Modulation{} // holds a func: compare the rest
		want := CityGrid{
			GridRows: f.side, GridCols: f.side, BlockM: 200, APs: 4,
			HelloPeriod: time.Second, Duration: 160 * time.Second,
		}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("%s: zero grid normalized to %+v, want %+v", f.name, g, want)
		}
	}
}
