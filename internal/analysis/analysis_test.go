package analysis

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/trace"
)

const (
	apID packet.NodeID = 100
	car1 packet.NodeID = 1
	car2 packet.NodeID = 2
)

// buildRound fabricates one round: the AP sends seqs 1..n to each car;
// each car receives the seqs listed in direct, and recovers the seqs in
// recovered.
func buildRound(n uint32, direct map[packet.NodeID][]uint32, recovered map[packet.NodeID][]uint32) *trace.Collector {
	c := &trace.Collector{}
	at := time.Duration(0)
	for _, car := range []packet.NodeID{car1, car2} {
		for seq := uint32(1); seq <= n; seq++ {
			at += 100 * time.Millisecond
			f := packet.NewData(apID, car, seq, nil)
			c.OnTx(apID, f, at, 8*time.Millisecond)
		}
	}
	for car, seqs := range direct {
		for _, seq := range seqs {
			for _, rx := range []packet.NodeID{car1, car2} {
				// Every car hears every delivered frame (promiscuous) in
				// this toy model only if it's its own or it buffers; for
				// analysis only own receptions matter, so record only at
				// the owning car.
				if rx == car {
					f := packet.NewData(apID, car, seq, nil)
					c.OnRx(rx, f, mac.RxMeta{At: time.Duration(seq) * time.Second})
				}
			}
		}
	}
	for car, seqs := range recovered {
		for _, seq := range seqs {
			c.OnRecovered(car, seq, otherCar(car), 100*time.Second)
		}
	}
	return c
}

func otherCar(c packet.NodeID) packet.NodeID {
	if c == car1 {
		return car2
	}
	return car1
}

func TestTable1SingleRound(t *testing.T) {
	// Car 1: window 2..9 (8 packets), received {2,5,9} directly, recovered
	// {3,4}: lost before = 5, lost after = 3.
	round := buildRound(10,
		map[packet.NodeID][]uint32{car1: {2, 5, 9}, car2: {1, 10}},
		map[packet.NodeID][]uint32{car1: {3, 4}},
	)
	rows := Table1([]*trace.Collector{round}, []packet.NodeID{car1, car2})
	r1 := rows[0]
	if r1.Rounds != 1 {
		t.Fatalf("rounds = %d", r1.Rounds)
	}
	if got := r1.TxByAP.Mean(); got != 8 {
		t.Fatalf("TxByAP = %v, want 8", got)
	}
	if got := r1.LostBefore.Mean(); got != 5 {
		t.Fatalf("LostBefore = %v, want 5", got)
	}
	if got := r1.LostAfter.Mean(); got != 3 {
		t.Fatalf("LostAfter = %v, want 3", got)
	}
	if got := r1.LostBeforePct(); math.Abs(got-62.5) > 1e-9 {
		t.Fatalf("LostBeforePct = %v, want 62.5", got)
	}
	if got := r1.Improvement(); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("Improvement = %v, want 0.4", got)
	}
	// Car 2: window 1..10 (10 packets), 2 direct, nothing recovered.
	r2 := rows[1]
	if r2.TxByAP.Mean() != 10 || r2.LostBefore.Mean() != 8 || r2.LostAfter.Mean() != 8 {
		t.Fatalf("car2 row = %+v", r2)
	}
}

func TestTable1SkipsEmptyRounds(t *testing.T) {
	empty := buildRound(5, nil, nil)
	full := buildRound(5, map[packet.NodeID][]uint32{car1: {1, 5}}, nil)
	rows := Table1([]*trace.Collector{empty, full}, []packet.NodeID{car1})
	if rows[0].Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1 (empty round skipped)", rows[0].Rounds)
	}
}

func TestTable1ZeroGuards(t *testing.T) {
	row := &Table1Row{Car: car1}
	if row.LostBeforePct() != 0 || row.LostAfterPct() != 0 || row.Improvement() != 0 {
		t.Fatal("zero-data row did not return zeros")
	}
}

func TestFormatTable1(t *testing.T) {
	round := buildRound(10, map[packet.NodeID][]uint32{car1: {1, 10}}, nil)
	rows := Table1([]*trace.Collector{round}, []packet.NodeID{car1})
	out := FormatTable1(rows)
	if !strings.Contains(out, "Lost before coop") || !strings.Contains(out, "Mean") {
		t.Fatalf("format output missing headers:\n%s", out)
	}
}

func TestWindow(t *testing.T) {
	r1 := buildRound(20, map[packet.NodeID][]uint32{car1: {3, 9}, car2: {5, 12}}, nil)
	r2 := buildRound(20, map[packet.NodeID][]uint32{car1: {2, 8}}, nil)
	rounds := []*trace.Collector{r1, r2}
	cars := []packet.NodeID{car1, car2}
	// Joint over car1's flow: round1 car1 received {3,9} of flow car1;
	// car2 received nothing of flow car1 (buildRound records own flow
	// only). Round2: {2,8}. Window = 2..9 for both figures of the flow.
	lo, hi, curves, ok := ReceptionCurves(rounds, car1, cars)
	if !ok || lo != 2 || hi != 9 || len(curves) != 2 || curves[0].Len() != 8 {
		t.Fatalf("reception window = %d..%d ok=%v with %d curves", lo, hi, ok, len(curves))
	}
	lo, hi, after, joint, ok := CoopCurves(rounds, car1, cars)
	if !ok || lo != 2 || hi != 9 || after.Len() != 8 || joint.Len() != 8 {
		t.Fatalf("coop window = %d..%d ok=%v", lo, hi, ok)
	}
	if _, _, _, ok := ReceptionCurves(nil, car1, []packet.NodeID{car1}); ok {
		t.Fatal("empty round set produced a reception window")
	}
	if _, _, _, _, ok := CoopCurves(nil, car1, []packet.NodeID{car1}); ok {
		t.Fatal("empty round set produced a coop window")
	}
}

func TestReceptionSeriesProbabilities(t *testing.T) {
	// Seq 1 received by car1 in both rounds, seq 2 in one, seq 3 in
	// none; car2 overhearing seq 3 stretches the window to 1..3.
	r1 := buildRound(3, map[packet.NodeID][]uint32{car1: {1, 2}}, nil)
	r2 := buildRound(3, map[packet.NodeID][]uint32{car1: {1}}, nil)
	r2.OnRx(car2, packet.NewData(apID, car1, 3, nil), mac.RxMeta{At: 3 * time.Second})
	_, _, curves, _ := ReceptionCurves([]*trace.Collector{r1, r2}, car1, []packet.NodeID{car1, car2})
	s := curves[0]
	if s.Len() != 3 || s.Name != "Rx in car n1" {
		t.Fatalf("series %q len = %d", s.Name, s.Len())
	}
	want := []float64{1, 0.5, 0}
	for i, w := range want {
		if math.Abs(s.Y[i]-w) > 1e-9 {
			t.Fatalf("P(seq %d) = %v, want %v", i+1, s.Y[i], w)
		}
	}
}

func TestAfterCoopAndJointSeries(t *testing.T) {
	// Car1 receives 1 directly and recovers 2; car2 receives 2 and 3 of
	// its own flow — joint for car1's flow is just car1's receptions
	// here, so craft a round where car2 hears car1's flow too.
	c := &trace.Collector{}
	for seq := uint32(1); seq <= 3; seq++ {
		c.OnTx(apID, packet.NewData(apID, car1, seq, nil), time.Duration(seq)*time.Second, time.Millisecond)
	}
	c.OnRx(car1, packet.NewData(apID, car1, 1, nil), mac.RxMeta{At: time.Second})
	c.OnRx(car2, packet.NewData(apID, car1, 2, nil), mac.RxMeta{At: 2 * time.Second}) // overheard by car2
	c.OnRecovered(car1, 2, car2, 10*time.Second)

	// Seq 3 of car1's flow reaches car2 only in a RESPONSE, which is no
	// direct reception, and seq 4 is of car2's own flow: neither widens
	// car1's window.
	c.OnRx(car2, packet.NewResponse(car3, car1, 3, nil), mac.RxMeta{At: 3 * time.Second})
	c.OnRx(car2, packet.NewData(apID, car2, 4, nil), mac.RxMeta{At: 4 * time.Second})

	rounds := []*trace.Collector{c}
	lo, hi, after, joint, ok := CoopCurves(rounds, car1, []packet.NodeID{car1, car2})
	if !ok || lo != 1 || hi != 2 {
		t.Fatalf("window = %d..%d ok=%v, want 1..2", lo, hi, ok)
	}
	wantAfter := []float64{1, 1}
	wantJoint := []float64{1, 1}
	for i := range wantAfter {
		if after.Y[i] != wantAfter[i] {
			t.Fatalf("after[%d] = %v, want %v", i, after.Y[i], wantAfter[i])
		}
		if joint.Y[i] != wantJoint[i] {
			t.Fatalf("joint[%d] = %v, want %v", i, joint.Y[i], wantJoint[i])
		}
	}
	maxGap, meanGap := OptimalityGap(after, joint)
	if maxGap != 0 || meanGap != 0 {
		t.Fatalf("gap = %v/%v, want 0/0 (optimal recovery)", maxGap, meanGap)
	}
}

func TestOptimalityGapDetectsShortfall(t *testing.T) {
	c := &trace.Collector{}
	c.OnTx(apID, packet.NewData(apID, car1, 1, nil), time.Second, time.Millisecond)
	// Car 2 heard it, car 1 never recovered it.
	c.OnRx(car2, packet.NewData(apID, car1, 1, nil), mac.RxMeta{At: time.Second})
	rounds := []*trace.Collector{c}
	_, _, after, joint, _ := CoopCurves(rounds, car1, []packet.NodeID{car1, car2})
	maxGap, _ := OptimalityGap(after, joint)
	if maxGap != 1 {
		t.Fatalf("maxGap = %v, want 1", maxGap)
	}
}

func TestCoverageEfficiency(t *testing.T) {
	c := &trace.Collector{}
	// Joint set for car1's flow: seqs 1,2,3 (1,2 by car1; 3 by car2).
	c.OnRx(car1, packet.NewData(apID, car1, 1, nil), mac.RxMeta{})
	c.OnRx(car1, packet.NewData(apID, car1, 2, nil), mac.RxMeta{})
	c.OnRx(car2, packet.NewData(apID, car1, 3, nil), mac.RxMeta{})
	rounds := []*trace.Collector{c}
	cars := []packet.NodeID{car1, car2}
	// Without recovery: car1 holds 2 of 3 receivable.
	if got := CoverageEfficiency(rounds, car1, cars); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("CoverageEfficiency = %v, want 2/3", got)
	}
	// After recovering seq 3: 3 of 3.
	c.OnRecovered(car1, 3, car2, time.Minute)
	if got := CoverageEfficiency(rounds, car1, cars); got != 1 {
		t.Fatalf("CoverageEfficiency = %v, want 1", got)
	}
	// No receptions at all: zero (round skipped).
	if got := CoverageEfficiency([]*trace.Collector{{}}, car1, cars); got != 0 {
		t.Fatalf("CoverageEfficiency(empty) = %v", got)
	}
}

func TestSplitRegions(t *testing.T) {
	r := SplitRegions(1, 90)
	if r.B1 != 31 || r.B2 != 61 {
		t.Fatalf("boundaries = %d, %d; want 31, 61", r.B1, r.B2)
	}
	// Degenerate window still yields ordered boundaries.
	r2 := SplitRegions(5, 6)
	if r2.B1 < r2.Lo || r2.B2 > r2.Hi+1 {
		t.Fatalf("degenerate regions: %+v", r2)
	}
}

func TestRegionMeans(t *testing.T) {
	r1 := buildRound(9, map[packet.NodeID][]uint32{car1: {1, 2, 3}}, nil)
	r1.OnRx(car2, packet.NewData(apID, car1, 9, nil), mac.RxMeta{At: 9 * time.Second})
	_, _, curves, _ := ReceptionCurves([]*trace.Collector{r1}, car1, []packet.NodeID{car1, car2})
	s := curves[0]
	regions := SplitRegions(1, 9)
	m1, m2, m3 := regions.regionMeans(s)
	if m1 != 1 || m2 != 0 || m3 != 0 {
		t.Fatalf("region means = %v, %v, %v; want 1, 0, 0", m1, m2, m3)
	}
	rep := NewRegionReport(regions, s)
	if !strings.Contains(rep.String(), "Region I") {
		t.Fatalf("report: %s", rep)
	}
}

func TestMeasureOverhead(t *testing.T) {
	c := &trace.Collector{}
	c.OnTx(apID, packet.NewData(apID, car1, 1, make([]byte, 100)), 0, time.Millisecond)
	c.OnTx(car1, packet.NewHello(car1, []packet.NodeID{car2}), 0, time.Millisecond)
	c.OnTx(car1, packet.NewRequest(car1, []uint32{1, 2}), 0, time.Millisecond)
	c.OnTx(car2, packet.NewResponse(car2, car1, 1, make([]byte, 100)), 0, time.Millisecond)
	o := MeasureOverhead(c)
	if o.DataTx != 1 || o.HelloTx != 1 || o.RequestTx != 1 || o.ResponseTx != 1 {
		t.Fatalf("overhead = %+v", o)
	}
	if o.ControlTx() != 3 {
		t.Fatalf("ControlTx = %d", o.ControlTx())
	}
	if o.RequestBytes != packet.NewRequest(car1, []uint32{1, 2}).WireSize() {
		t.Fatalf("RequestBytes = %d", o.RequestBytes)
	}
}

func TestLastRecoveryLatencies(t *testing.T) {
	c := &trace.Collector{}
	c.OnPhaseChange(car1, carq.PhaseReception, carq.PhaseCoopARQ, 10*time.Second)
	c.OnRecovered(car1, 1, car2, 12*time.Second)
	c.OnRecovered(car1, 2, car2, 19*time.Second)
	// A recovery by another car must not count.
	c.OnRecovered(car2, 9, car1, 40*time.Second)
	lats := LastRecoveryLatencies([]*trace.Collector{c}, car1)
	if len(lats) != 1 || math.Abs(lats[0]-9) > 1e-9 {
		t.Fatalf("latencies = %v, want [9]", lats)
	}
	// No coop phase: no samples.
	if got := LastRecoveryLatencies([]*trace.Collector{{}}, car1); len(got) != 0 {
		t.Fatalf("latencies without coop = %v", got)
	}
	// Coop phase but no recoveries: no samples.
	empty := &trace.Collector{}
	empty.OnPhaseChange(car1, carq.PhaseReception, carq.PhaseCoopARQ, time.Second)
	if got := LastRecoveryLatencies([]*trace.Collector{empty}, car1); len(got) != 0 {
		t.Fatalf("latencies without recoveries = %v", got)
	}
}

// naiveTable1 is the per-car reference Table1 is checked against: for
// every round and car it queries the round's direct-reception set, the
// AP's DATA sends (from the tx records, not the Sent tally) and the held
// set separately.
func naiveTable1(rounds []*trace.Collector, cars []packet.NodeID) []*Table1Row {
	rows := make([]*Table1Row, len(cars))
	for i, car := range cars {
		rows[i] = &Table1Row{Car: car}
	}
	for _, round := range rounds {
		for i, car := range cars {
			direct := naiveDirect(round, car, car)
			if len(direct) == 0 {
				continue
			}
			first, last := seqBounds(direct)
			txN := 0
			for seq := range naiveSent(round, car) {
				if seq >= first && seq <= last {
					txN++
				}
			}
			heldN := 0
			for seq := range naiveHeld(round, car) {
				if seq >= first && seq <= last {
					heldN++
				}
			}
			row := rows[i]
			row.Rounds++
			row.TxByAP.Add(float64(txN))
			row.LostBefore.Add(float64(txN - len(direct)))
			row.LostAfter.Add(float64(txN - heldN))
		}
	}
	return rows
}

// TestTable1MatchesNaiveReference: randomized rounds over a small id
// space — so flows, receivers and recoverers collide — with every frame
// type, repeated sequence numbers, DATA overheard by other stations,
// recoveries of seqs also received directly and recoveries outside the
// reception window; the car list repeats a car and names cars absent
// from some or all rounds.
func TestTable1MatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	types := []packet.Type{packet.TypeData, packet.TypeData, packet.TypeHello, packet.TypeRequest, packet.TypeResponse}
	for trial := 0; trial < 100; trial++ {
		node := func() packet.NodeID { return packet.NodeID(rng.Intn(6)) }
		seq := func() uint32 { return uint32(rng.Intn(40)) }
		var rounds []*trace.Collector
		for r := rng.Intn(4); r >= 0; r-- {
			c := &trace.Collector{}
			for k := rng.Intn(80); k > 0; k-- {
				c.OnTx(apID, &packet.Frame{Type: types[rng.Intn(len(types))], Dst: node(), Flow: node(), Seq: seq()}, 0, time.Millisecond)
			}
			for k := rng.Intn(80); k > 0; k-- {
				c.Rx = append(c.Rx, trace.RxRecord{Dst: node(), Src: apID, Type: types[rng.Intn(len(types))], Flow: node(), Seq: seq()})
			}
			for k := rng.Intn(20); k > 0; k-- {
				c.Recovered = append(c.Recovered, trace.RecoveryRecord{Node: node(), Seq: seq(), From: node()})
			}
			rounds = append(rounds, c)
		}
		// Ids 6 and 7 never appear in a round; a random car repeats.
		cars := []packet.NodeID{node(), node(), 6, node(), node(), 7}
		cars = append(cars, cars[rng.Intn(len(cars))])
		rng.Shuffle(len(cars), func(i, j int) { cars[i], cars[j] = cars[j], cars[i] })

		got, want := Table1(rounds, cars), naiveTable1(rounds, cars)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d, cars %v, row %d (car %d):\n got %+v\nwant %+v", trial, cars, i, cars[i], *got[i], *want[i])
				}
			}
		}
	}
}
