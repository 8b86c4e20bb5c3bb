package analysis

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

const car3 packet.NodeID = 3

// naiveSeries is the per-sequence reference the series functions must
// match: rebuild the round's set for every sequence on the axis.
func naiveSeries(name string, rounds []*trace.Collector, lo, hi uint32, set func(*trace.Collector) map[uint32]bool) *stats.Series {
	s := &stats.Series{Name: name}
	for seq := uint64(lo); seq <= uint64(hi); seq++ {
		var p stats.Proportion
		for _, round := range rounds {
			p.Add(set(round)[uint32(seq)])
		}
		s.Append(float64(seq), p.Estimate())
	}
	return s
}

// randomRound fabricates one round over seqs near base: DATA receptions
// at random stations for two flows, RESPONSE receptions (which the
// direct sets must ignore) and cooperative recoveries. With absent set,
// car1's flow never appears.
func randomRound(rng *rand.Rand, base uint32, span int, absent bool) *trace.Collector {
	c := &trace.Collector{}
	flows := []packet.NodeID{car1, car2}
	if absent {
		flows = flows[1:]
	}
	for i := rng.Intn(3 * span); i > 0; i-- {
		flow := flows[rng.Intn(len(flows))]
		rx := []packet.NodeID{car1, car2, car3}[rng.Intn(3)]
		seq := base + uint32(rng.Intn(span))
		f := packet.NewData(apID, flow, seq, nil)
		if rng.Intn(5) == 0 {
			f = packet.NewResponse(car3, flow, seq, nil)
		}
		c.OnRx(rx, f, mac.RxMeta{At: time.Duration(i) * time.Millisecond})
	}
	if !absent {
		for i := rng.Intn(span); i > 0; i-- {
			c.OnRecovered(car1, base+uint32(rng.Intn(span)), car2, time.Second)
		}
	}
	return c
}

// TestSeriesMatchNaiveReference compares ReceptionSeries, AfterCoopSeries
// and JointSeries with the per-sequence reference over random rounds,
// including rounds without the flow, empty windows (lo > hi) and windows
// wider than any round's reception.
func TestSeriesMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cars := []packet.NodeID{car1, car2, car3}
	for trial := 0; trial < 200; trial++ {
		span := 1 + rng.Intn(100)
		base := uint32(rng.Intn(1000))
		if trial%4 == 3 {
			base = math.MaxUint32 - uint32(span) + 1
		}
		rounds := make([]*trace.Collector, rng.Intn(6))
		for i := range rounds {
			rounds[i] = randomRound(rng, base, span, rng.Intn(4) == 0)
		}
		// A window anywhere from inside the receptions to well past both
		// ends of them, or an empty one.
		lo := base - min(base, uint32(rng.Intn(40)))
		hi := base + uint32(rng.Intn(span))
		if extra := uint32(rng.Intn(40)); hi <= math.MaxUint32-extra {
			hi += extra
		}
		if trial%10 == 0 && hi > 0 {
			lo, hi = hi, hi-1
		}
		check := func(got, want *stats.Series) {
			t.Helper()
			if got.Name != want.Name || !slices.Equal(got.X, want.X) || !slices.Equal(got.Y, want.Y) {
				t.Fatalf("trial %d [%d, %d]: %q = %v/%v, want %q = %v/%v",
					trial, lo, hi, got.Name, got.X, got.Y, want.Name, want.X, want.Y)
			}
		}
		check(ReceptionSeries(rounds, car1, car2, lo, hi),
			naiveSeries("Rx in n2 of flow n1", rounds, lo, hi,
				func(r *trace.Collector) map[uint32]bool { return r.DirectRxSet(car2, car1) }))
		check(AfterCoopSeries(rounds, car1, lo, hi),
			naiveSeries("Rx in n1 after coop", rounds, lo, hi,
				func(r *trace.Collector) map[uint32]bool { return r.HeldSet(car1) }))
		check(JointSeries(rounds, car1, cars, lo, hi),
			naiveSeries("Joint Rx of flow n1", rounds, lo, hi,
				func(r *trace.Collector) map[uint32]bool { return r.JointRxSet(car1, cars...) }))
	}
}

// TestSeriesWindowEndsAtMaxUint32 is the wrap-safety regression: a
// packet-number axis whose last sequence is math.MaxUint32 must end
// there instead of wrapping to 0 and running forever. One round comes
// from an AP whose stream starts at math.MaxUint32-8, the other is built
// by hand.
func TestSeriesWindowEndsAtMaxUint32(t *testing.T) {
	const first = math.MaxUint32 - 8
	engine := sim.New()
	recorded := &trace.Collector{}
	chCfg := radio.DefaultConfig()
	chCfg.ShadowSigmaDB = 0
	chCfg.FadingK = -1
	medium := mac.NewMedium(engine, radio.MustChannel(chCfg), recorded)
	apStation, err := medium.AddStation(apID, func(time.Duration) geom.Point { return geom.Point{} }, nil, mac.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := medium.AddStation(car1, func(time.Duration) geom.Point { return geom.Point{X: 30} }, nil, mac.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := ap.New(engine, apStation, ap.Config{
		ID: apID, Flows: []packet.NodeID{car1}, PacketsPerSecond: 10,
		Repeats: 1, FirstSeq: first, Stop: 850 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := engine.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := recorded.DataSentSeqs(car1); len(got) != 9 || got[0] != first || got[8] != math.MaxUint32 {
		t.Fatalf("AP sent %v, want %d..%d", got, uint32(first), uint32(math.MaxUint32))
	}

	hand := &trace.Collector{}
	for _, seq := range []uint32{first, math.MaxUint32} {
		hand.OnRx(car1, packet.NewData(apID, car1, seq, nil), mac.RxMeta{})
	}
	rounds := []*trace.Collector{recorded, hand}
	cars := []packet.NodeID{car1}
	lo, hi, ok := Window(rounds, car1, cars)
	if !ok || lo != first || hi != math.MaxUint32 {
		t.Fatalf("Window = [%d, %d] ok=%v, want [%d, %d]", lo, hi, ok, uint32(first), uint32(math.MaxUint32))
	}
	for _, s := range []*stats.Series{
		ReceptionSeries(rounds, car1, car1, lo, hi),
		AfterCoopSeries(rounds, car1, lo, hi),
		JointSeries(rounds, car1, cars, lo, hi),
	} {
		if s.Len() != 9 || s.X[8] != math.MaxUint32 {
			t.Fatalf("%s: %d points ending at %v, want 9 ending at %d", s.Name, s.Len(), s.X[s.Len()-1], uint32(math.MaxUint32))
		}
		for i, y := range s.Y {
			want := 0.5
			if i == 0 || i == 8 {
				want = 1
			}
			if y != want {
				t.Fatalf("%s: Y[%d] = %v, want %v", s.Name, i, y, want)
			}
		}
	}
}

// TestSeriesAllocsScaleWithRounds guards the series' complexity: each
// round's set is built once, so allocations grow with the number of
// rounds R, never with the window width W times R. A per-sequence
// rebuild would allocate at least W*R maps.
func TestSeriesAllocsScaleWithRounds(t *testing.T) {
	rounds := make([]*trace.Collector, 16)
	for i := range rounds {
		// A fixed reception per round, so only R and W vary below.
		rounds[i] = &trace.Collector{}
		for seq := uint32(1); seq <= 16; seq++ {
			rounds[i].OnRx(car1, packet.NewData(apID, car1, seq*3, nil), mac.RxMeta{})
		}
	}
	allocs := func(r int, w uint32) float64 {
		return testing.AllocsPerRun(5, func() { ReceptionSeries(rounds[:r], car1, car1, 1, w) })
	}
	narrow, wide, wideMoreRounds := allocs(4, 64), allocs(4, 8192), allocs(16, 8192)
	if wide > narrow+2 {
		t.Fatalf("allocs grow with the window: %v at W=64, %v at W=8192 (R=4)", narrow, wide)
	}
	if wideMoreRounds >= 16*64 {
		t.Fatalf("allocs %v at R=16, W=8192: grows with W*R", wideMoreRounds)
	}
	if perRound := (wideMoreRounds - wide) / 12; perRound > 16 {
		t.Fatalf("%v allocs per extra round, want a set build's worth (<= 16)", perRound)
	}
}
