package trace_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/trace"
)

// recoveryRound records a round in which car 1 receives seqs 1 and 3 of
// its flow directly, car 2 overhears car 1's seq 2, and car 1 then
// recovers seq 2 from car 2. The per-round sequence sets are read from
// it through package analysis, which owns them.
func recoveryRound() *trace.Collector {
	c := &trace.Collector{}
	c.OnRx(1, packet.NewData(100, 1, 1, []byte("x")), mac.RxMeta{At: time.Second})
	c.OnRx(1, packet.NewData(100, 1, 3, []byte("x")), mac.RxMeta{At: 3 * time.Second})
	c.OnRx(2, packet.NewData(100, 1, 2, []byte("x")), mac.RxMeta{At: 2 * time.Second})
	c.OnDrop(1, packet.NewData(100, 1, 2, []byte("x")), 2*time.Second, mac.DropChannel)
	c.OnRecovered(1, 2, 2, 9*time.Second)
	return c
}

func TestDirectAndJointRxSets(t *testing.T) {
	c := recoveryRound()
	if got := analysis.DirectSeqs(c, 1, 1); !slices.Equal(got, []uint32{1, 3}) {
		t.Fatalf("DirectSeqs(1, 1) = %v, want [1 3]", got)
	}
	lo, hi, _, joint, ok := analysis.CoopCurves([]*trace.Collector{c}, 1, []packet.NodeID{1, 2, 3})
	if !ok || lo != 1 || hi != 3 {
		t.Fatalf("joint window = [%d, %d] ok=%v, want [1, 3]", lo, hi, ok)
	}
	for i, y := range joint.Y {
		if y != 1 {
			t.Fatalf("joint reception misses seq %v: %v", joint.X[i], joint.Y)
		}
	}
}

func TestHeldSetIncludesRecoveries(t *testing.T) {
	c := recoveryRound()
	if got := analysis.HeldSeqs(c, 1); !slices.Equal(got, []uint32{1, 2, 3}) {
		t.Fatalf("HeldSeqs(1) = %v, want [1 2 3]", got)
	}
	if len(c.Recovered) != 1 || c.Recovered[0].Node != 1 || c.Recovered[0].Seq != 2 {
		t.Fatalf("Recovered = %+v, want car 1's seq 2 only", c.Recovered)
	}
}
