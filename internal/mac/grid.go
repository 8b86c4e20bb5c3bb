package mac

import "repro/internal/geom"

// gridCellM is the station grid's cell size.
const gridCellM = 250

// stationGrid is a uniform grid over every station's position sampled at
// one instant. It is rebuilt wholesale, never updated: a counting sort
// places the stations cell by cell into ents, and start[c]..start[c+1]
// bounds cell c's entries, so the cells of one grid row are one
// contiguous run of ents. Within a cell, entries keep registration order.
type stationGrid struct {
	minX, minY float64
	cols, rows int
	// start has cols*rows+1 entries; start[len-1] == len(ents).
	start []int32
	ents  []gridEntry
	// cells is build scratch: each station's cell index.
	cells []int32
}

// gridEntry is one station as the grid holds it: its registration index
// and sampled position, inline so a query scans contiguous memory.
type gridEntry struct {
	p   geom.Point
	idx int32
}

// build re-indexes the grid over pts, where pts[i] is station i's
// position; pts is never empty (the sender is a station). The bounds are
// the points' bounding box; a zero-extent box (one station, or all at
// one point) is a single cell.
func (g *stationGrid) build(pts []geom.Point) {
	g.minX, g.minY = pts[0].X, pts[0].Y
	maxX, maxY := g.minX, g.minY
	for _, p := range pts[1:] {
		g.minX, g.minY = min(g.minX, p.X), min(g.minY, p.Y)
		maxX, maxY = max(maxX, p.X), max(maxY, p.Y)
	}
	g.cols = int((maxX-g.minX)/gridCellM) + 1
	g.rows = int((maxY-g.minY)/gridCellM) + 1
	n := g.cols * g.rows
	g.start = growScratch(g.start, n+1)
	clear(g.start)
	g.cells = growScratch(g.cells, len(pts))
	for i, p := range pts {
		c := int32(g.row(p.Y)*g.cols + g.col(p.X))
		g.cells[i] = c
		g.start[c]++
	}
	// Running sums turn the counts into each cell's end; placing the
	// stations in reverse order then moves every start[c] back to its
	// cell's first entry, in registration order.
	for c := 1; c <= n; c++ {
		g.start[c] += g.start[c-1]
	}
	g.ents = growScratch(g.ents, len(pts))
	for i := len(pts) - 1; i >= 0; i-- {
		c := g.cells[i]
		g.start[c]--
		g.ents[g.start[c]] = gridEntry{p: pts[i], idx: int32(i)}
	}
}

// col and row clamp a coordinate into the grid's column and row range.
func (g *stationGrid) col(x float64) int { return min(max(int((x-g.minX)/gridCellM), 0), g.cols-1) }
func (g *stationGrid) row(y float64) int { return min(max(int((y-g.minY)/gridCellM), 0), g.rows-1) }

// near appends to dst the registration index of every station whose
// sampled position lies within r of p (inclusive), in cell-scan order,
// and returns the extended slice. r must be finite.
func (g *stationGrid) near(p geom.Point, r float64, dst []int32) []int32 {
	minCX, maxCX := g.col(p.X-r), g.col(p.X+r)
	minCY, maxCY := g.row(p.Y-r), g.row(p.Y+r)
	r2 := r * r
	for cy := minCY; cy <= maxCY; cy++ {
		row := cy * g.cols
		for _, e := range g.ents[g.start[row+minCX]:g.start[row+maxCX+1]] {
			dx, dy := e.p.X-p.X, e.p.Y-p.Y
			if dx*dx+dy*dy <= r2 {
				dst = append(dst, e.idx)
			}
		}
	}
	return dst
}
