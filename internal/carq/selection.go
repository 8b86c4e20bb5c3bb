package carq

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/packet"
)

// Candidate describes a one-hop neighbour learned through HELLO beacons.
type Candidate struct {
	ID packet.NodeID
	// FirstHeard and LastHeard are the times of the first and most
	// recent HELLO from this neighbour.
	FirstHeard time.Duration
	LastHeard  time.Duration
	// RxPowerDBm is the power of the most recent HELLO, a link-quality
	// proxy for selection policies.
	RxPowerDBm float64
}

// Selection chooses and orders a node's cooperators from its current
// candidate set. The returned order is the cooperation order advertised in
// HELLOs: index k answers requests after k back-off slots. The paper
// explicitly leaves the optimal policy as future work; SelectAll matches
// the prototype (every one-hop neighbour, in discovery order).
//
// The cands slice is the node's live candidate list, sorted by ID and
// valid only for the duration of the call: implementations must not
// modify it, must copy anything they keep (the built-in policies sort a
// copy) and must not return a slice backed by it.
type Selection interface {
	Select(cands []Candidate) []packet.NodeID
}

// SelectAll returns every candidate, ordered by discovery time (ties by
// ID). This is the prototype's behaviour.
type SelectAll struct{}

// Select implements Selection.
func (SelectAll) Select(cands []Candidate) []packet.NodeID {
	return rankTake(cands, 0, func(a, b Candidate) int { return cmp.Compare(a.FirstHeard, b.FirstHeard) })
}

// SelectBestK keeps the K candidates with the strongest last-heard signal,
// strongest first — so the best-placed cooperator answers with the
// shortest back-off. One of the cooperator-selection policies the paper
// lists as future work.
type SelectBestK struct {
	K int
}

// Select implements Selection.
func (s SelectBestK) Select(cands []Candidate) []packet.NodeID {
	return rankTake(cands, s.K, func(a, b Candidate) int { return cmp.Compare(b.RxPowerDBm, a.RxPowerDBm) })
}

// SelectFreshestK keeps the K most recently heard candidates — a recency
// policy that drops neighbours about to leave range.
type SelectFreshestK struct {
	K int
}

// Select implements Selection.
func (s SelectFreshestK) Select(cands []Candidate) []packet.NodeID {
	return rankTake(cands, s.K, func(a, b Candidate) int { return cmp.Compare(b.LastHeard, a.LastHeard) })
}

// rankTake orders a copy of cands by rank, ties by ID (IDs are unique, so
// the order is total), and returns the IDs of the first k, or of all
// when k <= 0 or k exceeds the candidates.
func rankTake(cands []Candidate, k int, rank func(a, b Candidate) int) []packet.NodeID {
	sorted := slices.Clone(cands)
	slices.SortFunc(sorted, func(a, b Candidate) int {
		if c := rank(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if k <= 0 || k > len(sorted) {
		k = len(sorted)
	}
	out := make([]packet.NodeID, k)
	for i := range out {
		out[i] = sorted[i].ID
	}
	return out
}
