package analysis

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

const car3 packet.NodeID = 3

// The naive set functions below are the per-station map queries the
// one-pass readers replaced; they stay here as the oracle the curves,
// Table 1, the coverage efficiency and the recovery dynamics are checked
// against.

// naiveDirect returns the seqs of flow's DATA frames rx received directly.
func naiveDirect(round *trace.Collector, rx, flow packet.NodeID) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, r := range round.Rx {
		if r.Type == packet.TypeData && r.Flow == flow && r.Dst == rx {
			out[r.Seq] = true
		}
	}
	return out
}

// naiveJoint returns the seqs of flow's DATA frames any of the stations
// received directly.
func naiveJoint(round *trace.Collector, flow packet.NodeID, stations []packet.NodeID) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, s := range stations {
		for seq := range naiveDirect(round, s, flow) {
			out[seq] = true
		}
	}
	return out
}

// naiveHeld returns car's direct receptions of its flow plus its
// recoveries.
func naiveHeld(round *trace.Collector, car packet.NodeID) map[uint32]bool {
	out := naiveDirect(round, car, car)
	for _, r := range round.Recovered {
		if r.Node == car {
			out[r.Seq] = true
		}
	}
	return out
}

// naiveSent returns the seqs of flow's DATA frames the round's tx
// records hold, independent of the Sent tally the readers use.
func naiveSent(round *trace.Collector, flow packet.NodeID) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, r := range round.Tx {
		if r.Type == packet.TypeData && r.Flow == flow {
			out[r.Seq] = true
		}
	}
	return out
}

// seqBounds returns the min and max keys of a non-empty set.
func seqBounds(set map[uint32]bool) (lo, hi uint32) {
	first := true
	for s := range set {
		if first || s < lo {
			lo = s
		}
		if first || s > hi {
			hi = s
		}
		first = false
	}
	return lo, hi
}

// naiveWindow is the span of flow's joint reception over all rounds.
func naiveWindow(rounds []*trace.Collector, flow packet.NodeID, cars []packet.NodeID) (lo, hi uint32, ok bool) {
	for _, round := range rounds {
		joint := naiveJoint(round, flow, cars)
		if len(joint) == 0 {
			continue
		}
		l, h := seqBounds(joint)
		if !ok {
			lo, hi, ok = l, h, true
			continue
		}
		lo, hi = min(lo, l), max(hi, h)
	}
	return lo, hi, ok
}

// naiveSeries rebuilds the round's set for every sequence on the axis.
func naiveSeries(name string, rounds []*trace.Collector, lo, hi uint32, set func(*trace.Collector) map[uint32]bool) *stats.Series {
	s := &stats.Series{Name: name}
	for seq := uint64(lo); seq <= uint64(hi); seq++ {
		k := 0
		for _, round := range rounds {
			if set(round)[uint32(seq)] {
				k++
			}
		}
		var p stats.Proportion
		p.AddN(k, len(rounds))
		s.Append(float64(seq), p.Estimate())
	}
	return s
}

// naiveCoverage is CoverageEfficiency over the naive sets.
func naiveCoverage(rounds []*trace.Collector, car packet.NodeID, cars []packet.NodeID) float64 {
	var acc stats.Accumulator
	for _, round := range rounds {
		joint := naiveJoint(round, car, cars)
		if len(joint) == 0 {
			continue
		}
		held := naiveHeld(round, car)
		got := 0
		for seq := range joint {
			if held[seq] {
				got++
			}
		}
		acc.Add(float64(got) / float64(len(joint)))
	}
	return acc.Mean()
}

// naiveDynamics is RecoveryDynamics over the naive direct set.
func naiveDynamics(round *trace.Collector, car packet.NodeID) *stats.Series {
	s := &stats.Series{Name: "missing packets, car " + car.String()}
	var coopStart time.Duration = -1
	for _, p := range round.Phases {
		if p.Node == car && p.To == carq.PhaseCoopARQ {
			coopStart = p.At
			break
		}
	}
	direct := naiveDirect(round, car, car)
	if coopStart < 0 || len(direct) == 0 {
		return s
	}
	first, last := seqBounds(direct)
	missing := 0
	for seq := range naiveSent(round, car) {
		if seq >= first && seq <= last && !direct[seq] {
			missing++
		}
	}
	var recs []trace.RecoveryRecord
	for _, r := range round.Recovered {
		if r.Node == car && r.At >= coopStart && r.Seq >= first && r.Seq <= last {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	s.Append(0, float64(missing))
	for _, r := range recs {
		missing--
		s.Append((r.At - coopStart).Seconds(), float64(missing))
	}
	return s
}

// randomRound fabricates one round over seqs near base: the AP's DATA
// sends, DATA receptions at random stations for two flows (some of them
// duplicated), RESPONSE receptions (which direct receptions must
// ignore), a Cooperative-ARQ phase entry and recoveries, some of seqs
// car1 already received directly. With absent set, car1's flow never
// appears.
func randomRound(rng *rand.Rand, base uint32, span int, absent bool) *trace.Collector {
	c := &trace.Collector{}
	flows := []packet.NodeID{car1, car2}
	if absent {
		flows = flows[1:]
	}
	for _, flow := range flows {
		for i := 0; i < span; i++ {
			if rng.Intn(4) > 0 {
				c.OnTx(apID, packet.NewData(apID, flow, base+uint32(i), nil), time.Duration(i)*time.Millisecond, time.Millisecond)
			}
		}
	}
	var direct []uint32 // car1's direct receptions of its own flow
	for i := rng.Intn(3 * span); i > 0; i-- {
		flow := flows[rng.Intn(len(flows))]
		rx := []packet.NodeID{car1, car2, car3}[rng.Intn(3)]
		seq := base + uint32(rng.Intn(span))
		f := packet.NewData(apID, flow, seq, nil)
		if rng.Intn(5) == 0 {
			f = packet.NewResponse(car3, flow, seq, nil)
		}
		meta := mac.RxMeta{At: time.Duration(i) * time.Millisecond}
		c.OnRx(rx, f, meta)
		if rx == car1 && flow == car1 && f.Type == packet.TypeData {
			direct = append(direct, seq)
		}
		if rng.Intn(6) == 0 {
			c.OnRx(rx, f, meta)
		}
	}
	if absent {
		return c
	}
	coop := time.Duration(rng.Intn(2000)) * time.Millisecond
	c.OnPhaseChange(car1, carq.PhaseReception, carq.PhaseCoopARQ, coop)
	for i := rng.Intn(span); i > 0; i-- {
		at := time.Duration(rng.Intn(4000)) * time.Millisecond
		c.OnRecovered(car1, base+uint32(rng.Intn(span)), car2, at)
	}
	if len(direct) > 0 {
		c.OnRecovered(car1, direct[rng.Intn(len(direct))], car3, 3*time.Second)
	}
	return c
}

// TestSeriesMatchNaiveReference compares ReceptionCurves, CoopCurves,
// CoverageEfficiency and RecoveryDynamics with the per-sequence naive
// references over random rounds: duplicate receptions, recoveries of
// seqs already held, rounds and whole trials in which no car received
// the flow, car lists that omit the car or repeat one, windows of a
// single sequence and windows ending at math.MaxUint32.
func TestSeriesMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	carLists := [][]packet.NodeID{
		{car1, car2, car3},
		{car2, car3},       // car1 missing from its own figure
		{car3, car1, car3}, // a repeated car
	}
	check := func(trial int, got, want *stats.Series) {
		t.Helper()
		if got.Name != want.Name || !slices.Equal(got.X, want.X) || !slices.Equal(got.Y, want.Y) {
			t.Fatalf("trial %d: %q = %v/%v, want %q = %v/%v",
				trial, got.Name, got.X, got.Y, want.Name, want.X, want.Y)
		}
	}
	for trial := 0; trial < 300; trial++ {
		span := 1 + rng.Intn(100)
		if trial%7 == 0 {
			span = 1
		}
		base := uint32(rng.Intn(1000))
		if trial%4 == 3 {
			base = math.MaxUint32 - uint32(span) + 1
		}
		rounds := make([]*trace.Collector, rng.Intn(6))
		for i := range rounds {
			rounds[i] = randomRound(rng, base, span, trial%9 == 0 || rng.Intn(4) == 0)
		}
		cars := carLists[trial%len(carLists)]

		lo, hi, ok := naiveWindow(rounds, car1, cars)
		wantCurves := 0
		if ok {
			wantCurves = len(cars)
		}
		gotLo, gotHi, curves, gotOK := ReceptionCurves(rounds, car1, cars)
		if gotLo != lo || gotHi != hi || gotOK != ok || len(curves) != wantCurves {
			t.Fatalf("trial %d: ReceptionCurves window %d..%d ok=%v with %d curves, want %d..%d ok=%v",
				trial, gotLo, gotHi, gotOK, len(curves), lo, hi, ok)
		}
		for i, car := range curves {
			rx := cars[i]
			check(trial, car, naiveSeries("Rx in car "+rx.String(), rounds, lo, hi,
				func(r *trace.Collector) map[uint32]bool { return naiveDirect(r, rx, car1) }))
		}

		gotLo, gotHi, after, joint, gotOK := CoopCurves(rounds, car1, cars)
		if gotLo != lo || gotHi != hi || gotOK != ok {
			t.Fatalf("trial %d: CoopCurves window %d..%d ok=%v, want %d..%d ok=%v", trial, gotLo, gotHi, gotOK, lo, hi, ok)
		}
		if ok {
			check(trial, after, naiveSeries("Rx in car n1 after coop", rounds, lo, hi,
				func(r *trace.Collector) map[uint32]bool { return naiveHeld(r, car1) }))
			check(trial, joint, naiveSeries("Joint Rx in any car", rounds, lo, hi,
				func(r *trace.Collector) map[uint32]bool { return naiveJoint(r, car1, cars) }))
		} else if after != nil || joint != nil {
			t.Fatalf("trial %d: curves without a window", trial)
		}

		if got, want := CoverageEfficiency(rounds, car1, cars), naiveCoverage(rounds, car1, cars); got != want {
			t.Fatalf("trial %d: CoverageEfficiency = %v, want %v", trial, got, want)
		}
		for i, round := range rounds {
			got, want := RecoveryDynamics(round, car1), naiveDynamics(round, car1)
			if !slices.Equal(got.X, want.X) || !slices.Equal(got.Y, want.Y) {
				t.Fatalf("trial %d round %d: RecoveryDynamics = %v/%v, want %v/%v", trial, i, got.X, got.Y, want.X, want.Y)
			}
		}
	}
}

// TestDirectAndHeldSeqs pins the two per-round lists on a hand-built
// round: car1 receives 3, 1 and 3 again directly, overhears nothing
// useful in a RESPONSE or in car2's flow, and recovers 2 and the 3 it
// already held.
func TestDirectAndHeldSeqs(t *testing.T) {
	c := &trace.Collector{}
	for _, seq := range []uint32{3, 1, 3} {
		c.OnRx(car1, packet.NewData(apID, car1, seq, nil), mac.RxMeta{})
	}
	c.OnRx(car1, packet.NewResponse(car2, car1, 5, nil), mac.RxMeta{})
	c.OnRx(car1, packet.NewData(apID, car2, 4, nil), mac.RxMeta{})
	c.OnRx(car2, packet.NewData(apID, car1, 2, nil), mac.RxMeta{})
	c.OnRecovered(car1, 2, car2, time.Second)
	c.OnRecovered(car1, 3, car2, time.Second)
	if got := DirectSeqs(c, car1, car1); !slices.Equal(got, []uint32{1, 3}) {
		t.Fatalf("DirectSeqs(car1, car1) = %v, want [1 3]", got)
	}
	if got := DirectSeqs(c, car2, car1); !slices.Equal(got, []uint32{2}) {
		t.Fatalf("DirectSeqs(car2, car1) = %v, want [2]", got)
	}
	if got := HeldSeqs(c, car1); !slices.Equal(got, []uint32{1, 2, 3}) {
		t.Fatalf("HeldSeqs(car1) = %v, want [1 2 3]", got)
	}
	if got := HeldSeqs(c, car3); len(got) != 0 {
		t.Fatalf("HeldSeqs(car3) = %v, want none", got)
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
	engine.RunUntil(2 * time.Second)
	if got := recorded.DataSentSeqs(car1); len(got) != 9 || got[0] != first || got[8] != math.MaxUint32 {
		t.Fatalf("AP sent %v, want %d..%d", got, uint32(first), uint32(math.MaxUint32))
	}

	hand := &trace.Collector{}
	for _, seq := range []uint32{first, math.MaxUint32} {
		hand.OnRx(car1, packet.NewData(apID, car1, seq, nil), mac.RxMeta{})
	}
	rounds := []*trace.Collector{recorded, hand}
	cars := []packet.NodeID{car1}
	lo, hi, curves, ok := ReceptionCurves(rounds, car1, cars)
	if !ok || lo != first || hi != math.MaxUint32 {
		t.Fatalf("reception window = [%d, %d] ok=%v, want [%d, %d]", lo, hi, ok, uint32(first), uint32(math.MaxUint32))
	}
	coopLo, coopHi, after, joint, ok := CoopCurves(rounds, car1, cars)
	if !ok || coopLo != lo || coopHi != hi {
		t.Fatalf("coop window = [%d, %d] ok=%v, want [%d, %d]", coopLo, coopHi, ok, lo, hi)
	}
	for _, s := range []*stats.Series{curves[0], after, joint} {
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

// TestSeriesAllocsScaleWithRounds guards the curves' complexity: each
// round's receptions are read once into reused lists, so allocations
// grow at most slowly with the number of rounds R, never with the window
// width W times R. A per-sequence rebuild would allocate at least W*R
// maps.
func TestSeriesAllocsScaleWithRounds(t *testing.T) {
	cars := []packet.NodeID{car1, car2}
	// R rounds, each with a fixed 16 receptions and 4 recoveries spread
	// over the window 1..W, so only R and W vary below.
	build := func(r int, w uint32) []*trace.Collector {
		rounds := make([]*trace.Collector, r)
		for i := range rounds {
			rounds[i] = &trace.Collector{}
			for k := uint32(0); k < 16; k++ {
				rounds[i].OnRx(car1, packet.NewData(apID, car1, 1+k*(w-1)/15, nil), mac.RxMeta{})
			}
			for k := uint32(0); k < 4; k++ {
				rounds[i].OnRecovered(car1, 2+k*(w-2)/3, car2, time.Second)
			}
		}
		return rounds
	}
	for _, fn := range []struct {
		name string
		run  func([]*trace.Collector)
	}{
		{"ReceptionCurves", func(rounds []*trace.Collector) { ReceptionCurves(rounds, car1, cars) }},
		{"CoopCurves", func(rounds []*trace.Collector) { CoopCurves(rounds, car1, cars) }},
		{"CoverageEfficiency", func(rounds []*trace.Collector) { CoverageEfficiency(rounds, car1, cars) }},
	} {
		allocs := func(r int, w uint32) float64 {
			rounds := build(r, w)
			return testing.AllocsPerRun(5, func() { fn.run(rounds) })
		}
		narrow, wide, wideMoreRounds := allocs(4, 64), allocs(4, 8192), allocs(16, 8192)
		if wide > narrow+2 {
			t.Fatalf("%s: allocs grow with the window: %v at W=64, %v at W=8192 (R=4)", fn.name, narrow, wide)
		}
		if perRound := (wideMoreRounds - wide) / 12; perRound > 1 {
			t.Fatalf("%s: %v allocs per extra round (%v at R=4, %v at R=16), want at most 1", fn.name, perRound, wide, wideMoreRounds)
		}
	}
}
