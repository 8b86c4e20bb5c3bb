package spatial

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func testGrid(t *testing.T) *Grid[int] {
	t.Helper()
	g, err := NewGrid[int](geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 10)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridNearFindsNeighbors(t *testing.T) {
	g := testGrid(t)
	g.Insert(1, geom.Point{X: 50, Y: 50})
	g.Insert(2, geom.Point{X: 54, Y: 50})
	g.Insert(3, geom.Point{X: 50, Y: 80}) // far away
	g.Insert(4, geom.Point{X: 45, Y: 47})
	var got []int
	g.Near(geom.Point{X: 50, Y: 50}, 8, func(e Entry[int]) bool {
		got = append(got, e.ID)
		return true
	})
	want := map[int]bool{1: true, 2: true, 4: true}
	if len(got) != len(want) {
		t.Fatalf("Near found %v, want ids %v", got, want)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected neighbor %d", id)
		}
	}
	if n := g.CountWithin(geom.Point{X: 50, Y: 50}, 8); n != 3 {
		t.Fatalf("CountWithin = %d, want 3", n)
	}
	if n := g.CountWithin(geom.Point{X: 50, Y: 50}, 1000); n != 4 {
		t.Fatalf("CountWithin(all) = %d, want 4", n)
	}
}

func TestGridRadiusBoundary(t *testing.T) {
	g := testGrid(t)
	g.Insert(1, geom.Point{X: 50, Y: 50})
	// Exactly on the radius counts; just outside does not.
	if n := g.CountWithin(geom.Point{X: 58, Y: 50}, 8); n != 1 {
		t.Fatalf("on-radius point missed: %d", n)
	}
	if n := g.CountWithin(geom.Point{X: 58.01, Y: 50}, 8); n != 0 {
		t.Fatalf("outside-radius point found: %d", n)
	}
}

func TestGridInfiniteRadiusVisitsAll(t *testing.T) {
	g := testGrid(t)
	for i := 0; i < 12; i++ {
		g.Insert(i, geom.Point{X: float64(i * 9), Y: float64(i * 7)})
	}
	if n := g.CountWithin(geom.Point{X: 3, Y: 3}, math.Inf(1)); n != 12 {
		t.Fatalf("CountWithin(inf) = %d, want 12", n)
	}
}

func TestGridClampsOutOfBounds(t *testing.T) {
	g := testGrid(t)
	g.Insert(1, geom.Point{X: -20, Y: 50})  // clamps into the west edge
	g.Insert(2, geom.Point{X: 130, Y: 130}) // clamps into the corner
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if n := g.CountWithin(geom.Point{X: -20, Y: 50}, 5); n != 1 {
		t.Fatalf("clamped point not found near itself: %d", n)
	}
}

func TestGridResetReuses(t *testing.T) {
	g := testGrid(t)
	for i := 0; i < 50; i++ {
		g.Insert(i, geom.Point{X: float64(i * 2), Y: 50})
	}
	g.Reset()
	if g.Len() != 0 {
		t.Fatalf("Len after reset = %d", g.Len())
	}
	if n := g.CountWithin(geom.Point{X: 50, Y: 50}, 1000); n != 0 {
		t.Fatalf("stale entries after reset: %d", n)
	}
	g.Insert(7, geom.Point{X: 1, Y: 1})
	if g.Len() != 1 || g.CountWithin(geom.Point{X: 1, Y: 1}, 2) != 1 {
		t.Fatal("insert after reset broken")
	}
}

func TestGridReindexMovesBounds(t *testing.T) {
	g := testGrid(t)
	for i := 0; i < 30; i++ {
		g.Insert(i, geom.Point{X: float64(i * 3), Y: 50})
	}
	// Re-bound onto a translated, smaller area: old entries are gone, new
	// ones indexed against the new frame.
	if err := g.Reindex(geom.Rect{MinX: 1000, MinY: 1000, MaxX: 1050, MaxY: 1050}, 10); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 {
		t.Fatalf("Len after reindex = %d", g.Len())
	}
	g.Insert(1, geom.Point{X: 1025, Y: 1025})
	if n := g.CountWithin(geom.Point{X: 1025, Y: 1025}, 3); n != 1 {
		t.Fatalf("entry not found after reindex: %d", n)
	}
	// Growing the bounds past the cached capacity must also work.
	if err := g.Reindex(geom.Rect{MinX: 0, MinY: 0, MaxX: 5000, MaxY: 5000}, 10); err != nil {
		t.Fatal(err)
	}
	g.Insert(2, geom.Point{X: 4999, Y: 4999})
	if n := g.CountWithin(geom.Point{X: 4999, Y: 4999}, 2); n != 1 {
		t.Fatalf("entry not found after growing reindex: %d", n)
	}
}

func TestGridEarlyStop(t *testing.T) {
	g := testGrid(t)
	for i := 0; i < 10; i++ {
		g.Insert(i, geom.Point{X: 50, Y: 50})
	}
	visits := 0
	g.Near(geom.Point{X: 50, Y: 50}, 5, func(Entry[int]) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("visited %d entries, want early stop at 3", visits)
	}
}

func TestGridRejectsBadConfig(t *testing.T) {
	if _, err := NewGrid[int](geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 0); err == nil {
		t.Fatal("zero cell accepted")
	}
	if _, err := NewGrid[int](geom.Rect{MinX: 5, MinY: 5, MaxX: 5, MaxY: 10}, 1); err == nil {
		t.Fatal("empty bounds accepted")
	}
	g := testGrid(t)
	if err := g.Reindex(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, -1); err == nil {
		t.Fatal("negative cell accepted on reindex")
	}
}

func TestGridMoveRefWithinCell(t *testing.T) {
	g := testGrid(t)
	r := g.InsertRef(1, geom.Point{X: 51, Y: 51})
	g.MoveRef(r, geom.Point{X: 53, Y: 52}) // same 10 m cell
	if e := g.At(r); e.P.X != 53 || e.P.Y != 52 {
		t.Fatalf("stored position %+v after in-cell move", e.P)
	}
	if n := g.CountWithin(geom.Point{X: 53, Y: 52}, 1); n != 1 {
		t.Fatalf("moved entry found %d times", n)
	}
}

func TestGridMoveRefAcrossCells(t *testing.T) {
	g := testGrid(t)
	r := g.InsertRef(1, geom.Point{X: 5, Y: 5})
	g.MoveRef(r, geom.Point{X: 95, Y: 95})
	if n := g.CountWithin(geom.Point{X: 5, Y: 5}, 3); n != 0 {
		t.Fatalf("entry still at the old cell: %d", n)
	}
	if n := g.CountWithin(geom.Point{X: 95, Y: 95}, 3); n != 1 {
		t.Fatalf("entry not at the new cell: %d", n)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d after move", g.Len())
	}
}

func TestGridContains(t *testing.T) {
	g := testGrid(t)
	if !g.Contains(geom.Point{X: 50, Y: 50}) {
		t.Fatal("interior point reported outside")
	}
	if g.Contains(geom.Point{X: 150, Y: 50}) {
		t.Fatal("exterior point reported inside")
	}
}

// TestGridIncrementalMatchesRebuilt drives random insert/move traffic through one grid maintained incrementally and checks, after
// every batch, that its query results match a grid rebuilt from scratch —
// the oracle behind the radio medium's incremental index maintenance.
func TestGridIncrementalMatchesRebuilt(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	inc, err := NewGrid[int](bounds, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pt := func() geom.Point {
		return geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	type ent struct {
		ref Ref
		p   geom.Point
	}
	live := map[int]*ent{}
	nextID := 0
	for batch := 0; batch < 40; batch++ {
		for op := 0; op < 30; op++ {
			switch {
			case len(live) == 0 || rng.Intn(4) == 0: // insert
				p := pt()
				live[nextID] = &ent{ref: inc.InsertRef(nextID, p), p: p}
				nextID++
			default: // move: mostly small drifts, sometimes a jump
				for _, e := range live {
					var p geom.Point
					if rng.Intn(8) == 0 {
						p = pt()
					} else {
						p = geom.Point{X: e.p.X + rng.NormFloat64()*10, Y: e.p.Y + rng.NormFloat64()*10}
					}
					inc.MoveRef(e.ref, p)
					e.p = p
					break
				}
			}
		}
		rebuilt, err := NewGrid[int](bounds, 50)
		if err != nil {
			t.Fatal(err)
		}
		for id, e := range live {
			rebuilt.Insert(id, e.p)
		}
		if inc.Len() != rebuilt.Len() {
			t.Fatalf("batch %d: Len %d vs rebuilt %d", batch, inc.Len(), rebuilt.Len())
		}
		for q := 0; q < 20; q++ {
			center, radius := pt(), rng.Float64()*200
			want := map[int]geom.Point{}
			rebuilt.Near(center, radius, func(e Entry[int]) bool {
				want[e.ID] = e.P
				return true
			})
			got := map[int]geom.Point{}
			inc.Near(center, radius, func(e Entry[int]) bool {
				got[e.ID] = e.P
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("batch %d query %d: %d hits vs rebuilt %d", batch, q, len(got), len(want))
			}
			for id, p := range want {
				if gp, ok := got[id]; !ok || gp != p {
					t.Fatalf("batch %d query %d: entry %d: got %v ok=%v want %v", batch, q, id, gp, ok, p)
				}
			}
		}
	}
}
