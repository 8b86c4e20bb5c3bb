// Package spatial provides the uniform spatial hash shared by the
// simulator's hot paths: the traffic subsystem's neighbor queries and the
// radio medium's delivery culling. It is generic over the entry ID so each
// consumer indexes its own identifier type (vehicle indices, station
// NodeIDs) without conversions.
//
// The grid is the cheap O(1)-per-query structure for "who is near this
// point" at any population size. Consumers either rebuild it wholesale
// (Reset or Reindex + Insert are allocation-free after warm-up) whenever
// their positions move, or maintain it incrementally: InsertRef returns a
// stable handle and MoveRef relocates one entry in O(1) — when the entry
// stays in its cell (the common case for sub-cell motion between
// refreshes) the move is a bare position store. Iteration order is
// deterministic: cells scan row-major, entries in insertion order (an
// entry moved out of a cell swaps the cell's last entry into its place).
package spatial

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Entry is one indexed point.
type Entry[ID any] struct {
	ID ID
	P  geom.Point
}

// Ref is a stable handle to one indexed point, valid until the grid is
// Reset or Reindexed. Incremental consumers keep the
// Ref returned by InsertRef and feed position updates through MoveRef.
type Ref int32

// gridEntry is the bookkeeping side of an entry: its location in the cell
// table, so MoveRef is O(1). The entry's payload (ID and
// position) lives inline in the cell slot — queries then scan contiguous
// memory instead of chasing a pointer per candidate, which is where most
// of the query time went at city scale.
type gridEntry struct {
	// cell is the owning cell index.
	cell int32
	// slot is the entry's index within cells[cell].
	slot int32
}

// cellSlot is one entry as stored in its cell: the payload plus the index
// of its arena entry (so unlink can fix the swapped-in entry's slot).
type cellSlot[ID any] struct {
	p   geom.Point
	id  ID
	ent int32
}

// Grid is a uniform spatial hash over a bounding geom.Rect.
type Grid[ID any] struct {
	bounds     geom.Rect
	cellM      float64
	cols, rows int
	// cells[c] lists the entries stored in cell c, payloads inline.
	cells [][]cellSlot[ID]
	// entries is the stable bookkeeping arena Refs point into, one per
	// indexed point.
	entries []gridEntry
}

// NewGrid builds an empty index over bounds with the given cell size.
func NewGrid[ID any](bounds geom.Rect, cellM float64) (*Grid[ID], error) {
	g := &Grid[ID]{}
	if err := g.Reindex(bounds, cellM); err != nil {
		return nil, err
	}
	return g, nil
}

// Reindex empties the grid and re-bounds it, reusing cell storage when the
// new geometry needs no more cells than the old. Dynamic consumers (the
// radio medium, whose stations roam an a-priori unknown area) call it on
// every full rebuild. All Refs are invalidated.
func (g *Grid[ID]) Reindex(bounds geom.Rect, cellM float64) error {
	if cellM <= 0 {
		return fmt.Errorf("spatial: grid cell %v", cellM)
	}
	w, h := bounds.MaxX-bounds.MinX, bounds.MaxY-bounds.MinY
	if w <= 0 || h <= 0 {
		return fmt.Errorf("spatial: empty grid bounds %+v", bounds)
	}
	cols := int(math.Ceil(w/cellM)) + 1
	rows := int(math.Ceil(h/cellM)) + 1
	need := cols * rows
	if need <= cap(g.cells) {
		g.cells = g.cells[:need]
		for i := range g.cells {
			g.cells[i] = g.cells[i][:0]
		}
	} else {
		g.cells = make([][]cellSlot[ID], need)
	}
	g.bounds, g.cellM, g.cols, g.rows = bounds, cellM, cols, rows
	g.entries = g.entries[:0]
	return nil
}

// Len returns the number of indexed points.
func (g *Grid[ID]) Len() int { return len(g.entries) }

// Bounds returns the indexed area.
func (g *Grid[ID]) Bounds() geom.Rect { return g.bounds }

// Contains reports whether p lies inside the indexed bounds. Points
// outside still index correctly (they clamp into edge cells), but an
// incremental consumer should treat an escape as its cue to rebuild over
// wider bounds before edge cells congest.
func (g *Grid[ID]) Contains(p geom.Point) bool {
	return p.X >= g.bounds.MinX && p.X <= g.bounds.MaxX &&
		p.Y >= g.bounds.MinY && p.Y <= g.bounds.MaxY
}

// Reset empties the index, keeping bounds and cell capacity for reuse.
// All Refs are invalidated.
func (g *Grid[ID]) Reset() {
	for i := range g.cells {
		g.cells[i] = g.cells[i][:0]
	}
	g.entries = g.entries[:0]
}

// cellAt clamps p into the grid and returns its cell index.
func (g *Grid[ID]) cellAt(p geom.Point) int32 {
	cx := int((p.X - g.bounds.MinX) / g.cellM)
	cy := int((p.Y - g.bounds.MinY) / g.cellM)
	cx = clampInt(cx, 0, g.cols-1)
	cy = clampInt(cy, 0, g.rows-1)
	return int32(cy*g.cols + cx)
}

// Insert adds one point. Points outside the bounds clamp into the edge
// cells, so queries near the boundary still find them (the stored position
// stays exact; only the owning cell is clamped).
func (g *Grid[ID]) Insert(id ID, p geom.Point) {
	g.InsertRef(id, p)
}

// InsertRef is Insert returning a stable handle for incremental updates.
func (g *Grid[ID]) InsertRef(id ID, p geom.Point) Ref {
	i := int32(len(g.entries))
	c := g.cellAt(p)
	g.entries = append(g.entries, gridEntry{cell: c, slot: int32(len(g.cells[c]))})
	g.cells[c] = append(g.cells[c], cellSlot[ID]{p: p, id: id, ent: i})
	return Ref(i)
}

// MoveRef updates one entry's position. When the new position maps to the
// entry's current cell the move is a single store; otherwise the entry
// relinks into its new cell (the vacated slot is filled by the cell's last
// entry).
func (g *Grid[ID]) MoveRef(r Ref, p geom.Point) {
	ent := &g.entries[r]
	c := g.cellAt(p)
	if c == ent.cell {
		g.cells[c][ent.slot].p = p
		return
	}
	moved := g.cells[ent.cell][ent.slot]
	moved.p = p
	g.unlink(ent)
	ent.cell, ent.slot = c, int32(len(g.cells[c]))
	g.cells[c] = append(g.cells[c], moved)
}

// unlink removes ent's payload from its cell's slot list, swapping the
// cell's last slot into the vacated one.
func (g *Grid[ID]) unlink(ent *gridEntry) {
	list := g.cells[ent.cell]
	last := int32(len(list) - 1)
	if ent.slot != last {
		moved := list[last]
		list[ent.slot] = moved
		g.entries[moved.ent].slot = ent.slot
	}
	g.cells[ent.cell] = list[:last]
}

// At returns the entry behind a live Ref.
func (g *Grid[ID]) At(r Ref) Entry[ID] {
	ent := &g.entries[r]
	s := g.cells[ent.cell][ent.slot]
	return Entry[ID]{ID: s.id, P: s.p}
}

// Near visits every indexed point within radiusM of p, in deterministic
// cell-scan order. The visitor returns false to stop early. An infinite
// radius visits everything.
func (g *Grid[ID]) Near(p geom.Point, radiusM float64, visit func(Entry[ID]) bool) {
	if radiusM < 0 {
		return
	}
	minCX, maxCX, minCY, maxCY := 0, g.cols-1, 0, g.rows-1
	r2 := math.Inf(1)
	if !math.IsInf(radiusM, 1) {
		minCX = clampInt(int((p.X-radiusM-g.bounds.MinX)/g.cellM), 0, g.cols-1)
		maxCX = clampInt(int((p.X+radiusM-g.bounds.MinX)/g.cellM), 0, g.cols-1)
		minCY = clampInt(int((p.Y-radiusM-g.bounds.MinY)/g.cellM), 0, g.rows-1)
		maxCY = clampInt(int((p.Y+radiusM-g.bounds.MinY)/g.cellM), 0, g.rows-1)
		r2 = radiusM * radiusM
	}
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			for i := range g.cells[cy*g.cols+cx] {
				s := &g.cells[cy*g.cols+cx][i]
				dx, dy := s.p.X-p.X, s.p.Y-p.Y
				if dx*dx+dy*dy <= r2 {
					if !visit(Entry[ID]{ID: s.id, P: s.p}) {
						return
					}
				}
			}
		}
	}
}

// IDsWithin appends the ID of every indexed point within radiusM of p to
// dst and returns the extended slice, in the same deterministic order Near
// visits. It is the allocation-free form of Near for consumers that only
// want the IDs — the radio medium's delivery path calls it once per
// transmission, where the visitor-closure indirection is measurable.
func (g *Grid[ID]) IDsWithin(p geom.Point, radiusM float64, dst []ID) []ID {
	if radiusM < 0 {
		return dst
	}
	minCX, maxCX, minCY, maxCY := 0, g.cols-1, 0, g.rows-1
	r2 := math.Inf(1)
	if !math.IsInf(radiusM, 1) {
		minCX = clampInt(int((p.X-radiusM-g.bounds.MinX)/g.cellM), 0, g.cols-1)
		maxCX = clampInt(int((p.X+radiusM-g.bounds.MinX)/g.cellM), 0, g.cols-1)
		minCY = clampInt(int((p.Y-radiusM-g.bounds.MinY)/g.cellM), 0, g.rows-1)
		maxCY = clampInt(int((p.Y+radiusM-g.bounds.MinY)/g.cellM), 0, g.rows-1)
		r2 = radiusM * radiusM
	}
	for cy := minCY; cy <= maxCY; cy++ {
		row := g.cells[cy*g.cols+minCX : cy*g.cols+maxCX+1]
		for _, cell := range row {
			for i := range cell {
				s := &cell[i]
				dx, dy := s.p.X-p.X, s.p.Y-p.Y
				if dx*dx+dy*dy <= r2 {
					dst = append(dst, s.id)
				}
			}
		}
	}
	return dst
}

// CountWithin returns how many indexed points lie within radiusM of p.
func (g *Grid[ID]) CountWithin(p geom.Point, radiusM float64) int {
	n := 0
	g.Near(p, radiusM, func(Entry[ID]) bool { n++; return true })
	return n
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
