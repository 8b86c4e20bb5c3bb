package analysis

import (
	"math"
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
	lo, hi, ok := Window([]*trace.Collector{r1, r2}, car1, []packet.NodeID{car1, car2})
	if !ok {
		t.Fatal("no window found")
	}
	// Joint over car1's flow: round1 car1 received {3,9} of flow car1;
	// car2 received nothing of flow car1 (buildRound records own flow
	// only). Round2: {2,8}. Window = 2..9.
	if lo != 2 || hi != 9 {
		t.Fatalf("window = %d..%d, want 2..9", lo, hi)
	}
	_, _, ok = Window(nil, car1, []packet.NodeID{car1})
	if ok {
		t.Fatal("empty round set produced a window")
	}
}

func TestReceptionSeriesProbabilities(t *testing.T) {
	// Seq 1 received in both rounds, seq 2 in one, seq 3 in none.
	r1 := buildRound(3, map[packet.NodeID][]uint32{car1: {1, 2}}, nil)
	r2 := buildRound(3, map[packet.NodeID][]uint32{car1: {1}}, nil)
	s := ReceptionSeries([]*trace.Collector{r1, r2}, car1, car1, 1, 3)
	if s.Len() != 3 {
		t.Fatalf("series len = %d", s.Len())
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

	rounds := []*trace.Collector{c}
	after := AfterCoopSeries(rounds, car1, 1, 3)
	joint := JointSeries(rounds, car1, []packet.NodeID{car1, car2}, 1, 3)
	wantAfter := []float64{1, 1, 0}
	wantJoint := []float64{1, 1, 0}
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
	after := AfterCoopSeries(rounds, car1, 1, 1)
	joint := JointSeries(rounds, car1, []packet.NodeID{car1, car2}, 1, 1)
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
	s := ReceptionSeries([]*trace.Collector{r1}, car1, car1, 1, 9)
	regions := SplitRegions(1, 9)
	m1, m2, m3 := regions.RegionMeans(s)
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
