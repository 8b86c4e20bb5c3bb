package analysis

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Regions splits a packet-number window into the paper's three reception
// regions. The paper defines them by geometry (the addressed car entering,
// inside, and leaving coverage); for automated analysis we use the
// equal-thirds split of the window, which matches the paper's figures
// closely enough to test the qualitative claims (who leads whom in which
// region).
type Regions struct {
	Lo, Hi uint32 // full window
	// Boundaries: Region I = [Lo, B1), Region II = [B1, B2), Region III
	// = [B2, Hi].
	B1, B2 uint32
}

// SplitRegions returns the equal-thirds region boundaries for a window.
func SplitRegions(lo, hi uint32) Regions {
	span := hi - lo + 1
	return Regions{
		Lo: lo, Hi: hi,
		B1: lo + span/3,
		B2: lo + 2*span/3,
	}
}

// regionMeans returns the mean Y of a series within each region. The
// series' X values must be sequence numbers within [Lo, Hi].
func (r Regions) regionMeans(s *stats.Series) (m1, m2, m3 float64) {
	var a1, a2, a3 stats.Accumulator
	for i := range s.X {
		seq := uint32(s.X[i])
		switch {
		case seq < r.B1:
			a1.Add(s.Y[i])
		case seq < r.B2:
			a2.Add(s.Y[i])
		default:
			a3.Add(s.Y[i])
		}
	}
	return a1.Mean(), a2.Mean(), a3.Mean()
}

// RegionReport holds per-region mean reception for a set of curves — the
// compact form of one of the paper's figures.
type RegionReport struct {
	Regions Regions
	Names   []string
	Means   [][3]float64
}

// NewRegionReport computes region means for each series.
func NewRegionReport(regions Regions, series ...*stats.Series) *RegionReport {
	rep := &RegionReport{Regions: regions}
	for _, s := range series {
		m1, m2, m3 := regions.regionMeans(s)
		rep.Names = append(rep.Names, s.Name)
		rep.Means = append(rep.Means, [3]float64{m1, m2, m3})
	}
	return rep
}

// String renders the report as an aligned table.
func (rep *RegionReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %10s %10s\n", "curve", "Region I", "Region II", "Region III")
	for i, name := range rep.Names {
		fmt.Fprintf(&b, "%-34s %10.3f %10.3f %10.3f\n",
			name, rep.Means[i][0], rep.Means[i][1], rep.Means[i][2])
	}
	return b.String()
}
