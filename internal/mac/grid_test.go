package mac

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestStationGridMatchesBruteForce checks the grid's query against a
// brute-force scan: the returned set must be exactly the stations within
// the radius (inclusive), each once — sorted, it must equal the scan's
// duplicate-free list — whatever the bounds' shape and
// wherever the query is centred. One grid is rebuilt for every case, so
// each build also runs on the previous case's scratch.
func TestStationGridMatchesBruteForce(t *testing.T) {
	line := make([]geom.Point, 10)
	for i := range line {
		line[i] = geom.Point{X: float64(i) * 300, Y: 50}
	}
	block := make([]geom.Point, 200)
	world := rand.New(rand.NewSource(1))
	for i := range block {
		block[i] = geom.Point{X: world.Float64() * 2000, Y: world.Float64() * 1500}
	}
	same := []geom.Point{{X: 7, Y: 7}, {X: 7, Y: 7}, {X: 7, Y: 7}, {X: 7, Y: 7}}

	cases := []struct {
		name string
		pts  []geom.Point
		p    geom.Point
		r    float64
		// hits is the expected result size, so no case passes vacuously.
		hits int
	}{
		{"random_block", block, geom.Point{X: 900, Y: 700}, 400, 35},
		{"single_station", []geom.Point{{X: -30, Y: 12}}, geom.Point{X: 0, Y: 0}, 40, 1},
		{"single_station_missed", []geom.Point{{X: -30, Y: 12}}, geom.Point{X: 0, Y: 0}, 20, 0},
		{"one_point", same, geom.Point{X: 7, Y: 7}, 0, 4},
		{"one_point_missed", same, geom.Point{X: 8, Y: 7}, 0.5, 0},
		{"axis_line", line, geom.Point{X: 1000, Y: 50}, 650, 4},
		{"axis_line_column", []geom.Point{{X: 5, Y: 0}, {X: 5, Y: 400}, {X: 5, Y: 900}}, geom.Point{X: 5, Y: 450}, 460, 3},
		{"query_outside_bounds", block, geom.Point{X: -300, Y: 700}, 500, 6},
		{"query_far_outside", block, geom.Point{X: 9000, Y: -9000}, 100, 0},
		{"exact_radius", []geom.Point{{X: 300, Y: 400}, {X: 301, Y: 400}, {X: 0, Y: -500}}, geom.Point{}, 500, 2},
		{"radius_covers_grid", block, geom.Point{X: 1000, Y: 750}, 1e6, 200},
	}
	var g stationGrid
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g.build(tc.pts)
			got := g.near(tc.p, tc.r, nil)
			slices.Sort(got)
			var want []int32
			for i, q := range tc.pts {
				dx, dy := q.X-tc.p.X, q.Y-tc.p.Y
				if dx*dx+dy*dy <= tc.r*tc.r {
					want = append(want, int32(i))
				}
			}
			if !slices.Equal(got, want) || len(got) != tc.hits {
				t.Fatalf("near(%v, %v) = %v, want %v (%d hits)", tc.p, tc.r, got, want, tc.hits)
			}
		})
	}
}
