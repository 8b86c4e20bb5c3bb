package carq

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

func mkCands() []Candidate {
	return []Candidate{
		{ID: 5, FirstHeard: 3 * time.Second, LastHeard: 9 * time.Second, RxPowerDBm: -70},
		{ID: 2, FirstHeard: 1 * time.Second, LastHeard: 8 * time.Second, RxPowerDBm: -60},
		{ID: 9, FirstHeard: 2 * time.Second, LastHeard: 10 * time.Second, RxPowerDBm: -80},
	}
}

func TestSelectAllDiscoveryOrder(t *testing.T) {
	got := SelectAll{}.Select(mkCands())
	want := []packet.NodeID{2, 9, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelectAll = %v, want %v", got, want)
	}
}

func TestSelectAllTieBreaksByID(t *testing.T) {
	cands := []Candidate{
		{ID: 7, FirstHeard: time.Second},
		{ID: 3, FirstHeard: time.Second},
	}
	got := SelectAll{}.Select(cands)
	want := []packet.NodeID{3, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelectAll = %v, want %v", got, want)
	}
}

func TestSelectBestK(t *testing.T) {
	got := SelectBestK{K: 2}.Select(mkCands())
	want := []packet.NodeID{2, 5} // strongest first
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelectBestK = %v, want %v", got, want)
	}
	// K <= 0 or K > len: all, strongest first.
	all := SelectBestK{}.Select(mkCands())
	if !reflect.DeepEqual(all, []packet.NodeID{2, 5, 9}) {
		t.Fatalf("SelectBestK{0} = %v", all)
	}
}

func TestSelectFreshestK(t *testing.T) {
	got := SelectFreshestK{K: 2}.Select(mkCands())
	want := []packet.NodeID{9, 5} // most recently heard first
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelectFreshestK = %v, want %v", got, want)
	}
}

// TestSelectionsTieBreakByID: candidates equal on every policy's rank
// come out in ID order, whatever their input order.
func TestSelectionsTieBreakByID(t *testing.T) {
	cands := []Candidate{
		{ID: 8, FirstHeard: time.Second, LastHeard: 4 * time.Second, RxPowerDBm: -65},
		{ID: 1, FirstHeard: time.Second, LastHeard: 4 * time.Second, RxPowerDBm: -65},
		{ID: 4, FirstHeard: time.Second, LastHeard: 4 * time.Second, RxPowerDBm: -65},
	}
	for _, sel := range []Selection{SelectAll{}, SelectBestK{K: 2}, SelectFreshestK{K: 3}} {
		got := sel.Select(cands)
		want := []packet.NodeID{1, 4, 8}[:len(got)]
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%T = %v, want %v", sel, got, want)
		}
	}
}

func TestSelectionsDoNotMutateInput(t *testing.T) {
	cands := mkCands()
	orig := append([]Candidate(nil), cands...)
	SelectAll{}.Select(cands)
	SelectBestK{K: 1}.Select(cands)
	SelectFreshestK{K: 1}.Select(cands)
	if !reflect.DeepEqual(cands, orig) {
		t.Fatal("selection mutated candidate slice")
	}
}

func TestSelectionProperties(t *testing.T) {
	// Property: every policy returns a permutation of a subset of the
	// input IDs, without duplicates, with size == min(K, len) for K
	// policies.
	check := func(ids []uint16, powers []int8, kRaw uint8) bool {
		if len(ids) > 20 {
			ids = ids[:20]
		}
		seen := map[packet.NodeID]bool{}
		var cands []Candidate
		for i, raw := range ids {
			id := packet.NodeID(raw)
			if seen[id] {
				continue
			}
			seen[id] = true
			p := -90.0
			if i < len(powers) {
				p = float64(powers[i]) - 60
			}
			cands = append(cands, Candidate{
				ID:         id,
				FirstHeard: time.Duration(i) * time.Second,
				LastHeard:  time.Duration(2*i) * time.Second,
				RxPowerDBm: p,
			})
		}
		k := int(kRaw%8) + 1
		polys := []Selection{SelectAll{}, SelectBestK{K: k}, SelectFreshestK{K: k}}
		for pi, pol := range polys {
			out := pol.Select(cands)
			dup := map[packet.NodeID]bool{}
			for _, id := range out {
				if dup[id] || !seen[id] {
					return false
				}
				dup[id] = true
			}
			wantLen := len(cands)
			if pi > 0 && k < wantLen {
				wantLen = k
			}
			if len(out) != wantLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
