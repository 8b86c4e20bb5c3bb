package carq

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/packet"
)

// missingRef is the map-scan reference for the missing list: every
// sequence in [lo, hi] not in held, walked with a 64-bit counter so a
// window ending at math.MaxUint32 terminates.
func missingRef(held map[uint32]bool, lo, hi uint32) []uint32 {
	var out []uint32
	for s := uint64(lo); s <= uint64(hi); s++ {
		if !held[uint32(s)] {
			out = append(out, uint32(s))
		}
	}
	return out
}

// TestMissingMatchesMapScan drives nodes with random own-flow DATA and
// RESPONSE orders and checks Missing and MissingCount against the map-scan
// reference after every frame. The orders cross 64-bit word boundaries,
// move ownMin down after the first reception, put KnownFirstSeq below
// ownMin, recover packets outside the window before it reaches them, and
// run windows that end at math.MaxUint32. The bitset must stay within
// (ownMax-recoveryLo)/64 + 2 words throughout.
func TestMissingMatchesMapScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		span := 1 + rng.Intn(300)
		var base uint32
		switch trial % 3 {
		case 0:
			base = uint32(rng.Intn(1000))
		case 1:
			base = uint32(64*(1+rng.Intn(1<<20))) - uint32(rng.Intn(80))
		default:
			base = math.MaxUint32 - uint32(span) + 1
		}
		known := uint32(0)
		switch rng.Intn(3) {
		case 1:
			known = base - min(base, uint32(rng.Intn(150)))
		case 2:
			known = base + uint32(rng.Intn(span))
		}
		_, n, _, _ := newTestNode(t, func(c *Config) { c.KnownFirstSeq = known })

		held := map[uint32]bool{}
		var ownMin, ownMax uint32
		ownSeen := false
		for step := 0; step < 2*span; step++ {
			seq := base + uint32(rng.Intn(span))
			if rng.Intn(4) == 0 {
				// A RESPONSE, sometimes for a sequence outside the
				// window the node has seen so far.
				off := rng.Intn(span+128) - 64
				seq = uint32(max(0, min(int64(math.MaxUint32), int64(base)+int64(off))))
				rx(n, packet.NewResponse(2, 1, seq, nil))
			} else {
				rx(n, packet.NewData(apID, 1, seq, nil))
				// A duplicate of a held packet leaves the window alone.
				if held[seq] {
					continue
				}
				if !ownSeen {
					ownMin, ownMax, ownSeen = seq, seq, true
				}
				ownMin, ownMax = min(ownMin, seq), max(ownMax, seq)
			}
			held[seq] = true

			var want []uint32
			if ownSeen {
				lo := ownMin
				if known > 0 && known < ownMin {
					lo = known
				}
				want = missingRef(held, lo, ownMax)
				if words, bound := len(n.heldBits), int((ownMax-lo)/64)+2; words > bound {
					t.Fatalf("trial %d: bitset has %d words over window [%d, %d], want <= %d",
						trial, words, lo, ownMax, bound)
				}
			}
			if got := n.missing(); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d (base %d, known %d): Missing = %v, want %v",
					trial, step, base, known, got, want)
			}
			if got := n.MissingCount(); got != len(want) {
				t.Fatalf("trial %d step %d: MissingCount = %d, want %d", trial, step, got, len(want))
			}
		}
	}
}

// TestMissingWindowEndsAtMaxUint32 is the wrap-safety regression: the
// missing scan over a window whose last sequence is math.MaxUint32 must
// end there instead of wrapping to 0 and running forever.
func TestMissingWindowEndsAtMaxUint32(t *testing.T) {
	first := uint32(math.MaxUint32 - 8)
	_, n, _, _ := newTestNode(t, func(c *Config) { c.KnownFirstSeq = first })
	for _, seq := range []uint32{first + 2, math.MaxUint32, first + 5} {
		rx(n, packet.NewData(apID, 1, seq, nil))
	}
	want := []uint32{first, first + 1, first + 3, first + 4, first + 6, first + 7}
	if got := n.missing(); !slices.Equal(got, want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	if got := n.MissingCount(); got != len(want) {
		t.Fatalf("MissingCount = %d, want %d", got, len(want))
	}
	if len(n.heldBits) != 1 {
		t.Fatalf("bitset has %d words for a 9-packet window, want 1", len(n.heldBits))
	}
}
