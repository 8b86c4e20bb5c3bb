package analysis

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fullRound fabricates one full round trace over a small id and seq
// space, so flows, receivers and recoverers collide: transmissions
// (through OnTx, which tallies them) and receptions of every frame type,
// drops for every cause, phase changes (a Cooperative-ARQ entry among
// them for most cars), recoveries and completions, in no particular time
// order.
func fullRound(rng *rand.Rand) *trace.Collector {
	nodes := []packet.NodeID{apID, car1, car2, car3}
	cars := nodes[1:]
	node := func(from []packet.NodeID) packet.NodeID { return from[rng.Intn(len(from))] }
	typ := func() packet.Type { return packet.TypeData + packet.Type(rng.Intn(int(packet.TypeResponse))) }
	seq := func() uint32 { return uint32(rng.Intn(30)) }
	at := func() time.Duration { return time.Duration(rng.Intn(5000)) * time.Millisecond }
	c := &trace.Collector{}
	payload := make([]byte, packet.MaxPayload)
	for k := rng.Intn(80); k > 0; k-- {
		c.OnTx(node(nodes), &packet.Frame{Type: typ(), Dst: node(nodes), Flow: node(cars), Seq: seq(),
			Payload: payload[:rng.Intn(len(payload))]}, at(), time.Millisecond)
	}
	for k := rng.Intn(160); k > 0; k-- {
		c.Rx = append(c.Rx, trace.RxRecord{At: at(), Dst: node(nodes), Src: node(nodes), Type: typ(),
			Flow: node(cars), Seq: seq()})
	}
	for k := rng.Intn(40); k > 0; k-- {
		c.Drops = append(c.Drops, trace.DropRecord{At: at(), Dst: node(nodes), Src: node(nodes), Type: typ(),
			Flow: node(cars), Seq: seq(), Reason: mac.DropChannel + mac.DropReason(rng.Intn(int(mac.DropHalfDuplex)))})
	}
	for _, car := range cars {
		c.Phases = append(c.Phases, trace.PhaseRecord{At: at(), Node: car, From: carq.PhaseIdle, To: carq.PhaseReception})
		if rng.Intn(4) > 0 {
			c.Phases = append(c.Phases, trace.PhaseRecord{At: at(), Node: car, From: carq.PhaseReception, To: carq.PhaseCoopARQ})
		}
	}
	for k := rng.Intn(30); k > 0; k-- {
		c.Recovered = append(c.Recovered, trace.RecoveryRecord{At: at(), Node: node(cars), Seq: seq(), From: node(cars)})
	}
	for k := rng.Intn(3); k > 0; k-- {
		c.Completed = append(c.Completed, trace.CompleteRecord{At: at(), Node: node(cars)})
	}
	return c
}

// studyReaders renders every study reader's result over a set of rounds
// as text: floats in strconv's shortest round-trip form, which tells
// every two distinct non-NaN float64s apart, −0 included, so two equal
// renderings are bit-identical results.
var studyReaders = []struct {
	name string
	read func(rounds []*trace.Collector, car packet.NodeID, cars []packet.NodeID) string
}{
	{"Table1", func(rounds []*trace.Collector, _ packet.NodeID, cars []packet.NodeID) string {
		var b strings.Builder
		for _, row := range Table1(rounds, cars) {
			fmt.Fprintf(&b, "%+v\n", *row)
		}
		return b.String()
	}},
	{"ReceptionCurves", func(rounds []*trace.Collector, car packet.NodeID, cars []packet.NodeID) string {
		lo, hi, curves, ok := ReceptionCurves(rounds, car, cars)
		return fmt.Sprint(lo, hi, ok, renderSeries(curves...))
	}},
	{"CoopCurves", func(rounds []*trace.Collector, car packet.NodeID, cars []packet.NodeID) string {
		lo, hi, after, joint, ok := CoopCurves(rounds, car, cars)
		return fmt.Sprint(lo, hi, ok, renderSeries(after, joint))
	}},
	{"CoverageEfficiency", func(rounds []*trace.Collector, car packet.NodeID, cars []packet.NodeID) string {
		return fmt.Sprint(CoverageEfficiency(rounds, car, cars))
	}},
	{"LastRecoveryLatencies", func(rounds []*trace.Collector, car packet.NodeID, _ []packet.NodeID) string {
		return fmt.Sprint(LastRecoveryLatencies(rounds, car))
	}},
	{"DirectSeqs", perRound(func(round *trace.Collector, car packet.NodeID) any {
		return [][]uint32{DirectSeqs(round, car, car), DirectSeqs(round, car, car1)}
	})},
	{"HeldSeqs", perRound(func(round *trace.Collector, car packet.NodeID) any { return HeldSeqs(round, car) })},
	{"DataSentSeqs", perRound(func(round *trace.Collector, car packet.NodeID) any { return round.DataSentSeqs(car) })},
	{"MeasureOverhead", perRound(func(round *trace.Collector, _ packet.NodeID) any { return MeasureOverhead(round) })},
	{"RecoveryDynamics", perRound(func(round *trace.Collector, car packet.NodeID) any {
		return renderSeries(RecoveryDynamics(round, car))
	})},
	{"HalfRecoveryTime", perRound(func(round *trace.Collector, car packet.NodeID) any { return HalfRecoveryTime(round, car) })},
}

// perRound lifts a per-round reader to every round.
func perRound(read func(round *trace.Collector, car packet.NodeID) any) func([]*trace.Collector, packet.NodeID, []packet.NodeID) string {
	return func(rounds []*trace.Collector, car packet.NodeID, _ []packet.NodeID) string {
		var b strings.Builder
		for _, round := range rounds {
			fmt.Fprintf(&b, "%+v\n", read(round, car))
		}
		return b.String()
	}
}

func renderSeries(series ...*stats.Series) string {
	var b strings.Builder
	for _, s := range series {
		if s == nil {
			b.WriteString("<nil>\n")
			continue
		}
		fmt.Fprintf(&b, "%q %v %v\n", s.Name, s.X, s.Y)
	}
	return b.String()
}

// TestStudyViewKeepsEveryStudyResult: every study reader returns the
// same result, bit for bit, on random full rounds and on their study
// views, for each car and for car lists that omit or repeat a car. A
// reader that starts to read what the view leaves out — a transmission
// record, a control frame's reception, a drop — fails here rather than
// silently after a resume, whose rounds are study views.
func TestStudyViewKeepsEveryStudyResult(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	carLists := [][]packet.NodeID{{car1, car2, car3}, {car2, car3}, {car3, car1, car3}}
	var dropped, controlRx, sent int
	for trial := 0; trial < 200; trial++ {
		rounds := make([]*trace.Collector, 1+rng.Intn(4))
		views := make([]*trace.Collector, len(rounds))
		for i := range rounds {
			rounds[i] = fullRound(rng)
			views[i] = StudyView(rounds[i])
			dropped += len(rounds[i].Drops)
			sent += len(rounds[i].Tx)
			for _, r := range rounds[i].Rx {
				if r.Type != packet.TypeData {
					controlRx++
				}
			}
			v := views[i]
			if v.Tx != nil || v.Drops != nil || len(v.Rx) != cap(v.Rx) || slices.ContainsFunc(v.Rx, func(r trace.RxRecord) bool { return r.Type != packet.TypeData }) {
				t.Fatalf("trial %d round %d: view keeps %d tx records, or %d drops, or a control reception, or spare Rx capacity (%d of %d)",
					trial, i, len(v.Tx), len(v.Drops), len(v.Rx), cap(v.Rx))
			}
		}
		cars := carLists[trial%len(carLists)]
		for _, car := range []packet.NodeID{car1, car2, car3} {
			for _, r := range studyReaders {
				if got, want := r.read(views, car, cars), r.read(rounds, car, cars); got != want {
					t.Fatalf("trial %d: %s(car %v, cars %v) on the study views =\n%s\nwant\n%s", trial, r.name, car, cars, got, want)
				}
			}
		}
	}
	if dropped == 0 || controlRx == 0 || sent == 0 {
		t.Fatalf("random rounds held %d drops, %d control receptions and %d tx records: nothing was left out", dropped, controlRx, sent)
	}
}

// TestStudyCollectorRecordsStudyView: a study collector
// (trace.NewStudyCollector) fed random events through the tracer and
// observer methods equals, by its binary encoding, the study view of a
// full collector fed the same events, and keeps no transmission record,
// control reception or drop.
func TestStudyCollectorRecordsStudyView(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	nodes := []packet.NodeID{apID, car1, car2, car3}
	node := func() packet.NodeID { return nodes[rng.Intn(len(nodes))] }
	payload := make([]byte, packet.MaxPayload)
	frame := func() *packet.Frame {
		return &packet.Frame{Type: packet.TypeData + packet.Type(rng.Intn(int(packet.TypeResponse))),
			Src: node(), Dst: node(), Flow: node(), Seq: uint32(rng.Intn(30)), Payload: payload[:rng.Intn(len(payload))]}
	}
	var left int
	for trial := 0; trial < 100; trial++ {
		full, study := &trace.Collector{}, trace.NewStudyCollector()
		for k := rng.Intn(300); k > 0; k-- {
			at, f := time.Duration(rng.Intn(5000))*time.Millisecond, frame()
			for _, c := range []*trace.Collector{full, study} {
				switch k % 6 {
				case 0:
					c.OnTx(f.Src, f, at, time.Millisecond)
				case 1:
					c.OnRx(f.Dst, f, mac.RxMeta{At: at, RxPowerDBm: -70, SINRdB: 12})
				case 2:
					c.OnDrop(f.Dst, f, at, mac.DropCollision)
				case 3:
					c.OnPhaseChange(f.Dst, carq.PhaseReception, carq.PhaseCoopARQ, at)
				case 4:
					c.OnRecovered(f.Dst, f.Seq, f.Src, at)
				default:
					c.OnComplete(f.Dst, at)
				}
			}
		}
		if study.Tx != nil || study.Drops != nil || slices.ContainsFunc(study.Rx, func(r trace.RxRecord) bool { return r.Type != packet.TypeData }) {
			t.Fatalf("trial %d: study collector keeps %d tx records, %d drops or a control reception", trial, len(study.Tx), len(study.Drops))
		}
		if !bytes.Equal(study.AppendBinary(nil), StudyView(full).AppendBinary(nil)) {
			t.Fatalf("trial %d: study collector %+v differs from the study view of %+v", trial, study.Counts(), full.Counts())
		}
		left += len(full.Tx) + len(full.Drops) + len(full.Rx) - len(study.Rx)
	}
	if left == 0 {
		t.Fatal("the full collectors held nothing for the study collectors to leave out")
	}
}
