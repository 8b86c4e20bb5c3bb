// Package analysis post-processes simulation traces into the statistics
// the paper reports: the Table 1 loss summary, the per-packet reception
// probability curves of Figures 3–5, and the after-cooperation versus
// joint-reception ("virtual car") comparison of Figures 6–8.
//
// All functions operate on one trace.Collector per experiment round,
// mirroring the paper's 30 independent testbed rounds.
package analysis

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Table1Row aggregates one car's per-round loss statistics, matching the
// columns of the paper's Table 1.
type Table1Row struct {
	Car packet.NodeID
	// TxByAP is the per-round count of packets the AP sent to this car
	// within the car's reception window (first..last directly received).
	TxByAP stats.Accumulator
	// LostBefore is the per-round count of window packets not received
	// directly from the AP.
	LostBefore stats.Accumulator
	// LostAfter is the per-round count of window packets still missing
	// after the Cooperative-ARQ phase.
	LostAfter stats.Accumulator
	// Rounds counts rounds in which the car had a reception window.
	Rounds int
}

// LostBeforePct returns mean(LostBefore)/mean(TxByAP), the percentage the
// paper prints under the absolute mean.
func (r *Table1Row) LostBeforePct() float64 {
	if r.TxByAP.Mean() == 0 {
		return 0
	}
	return 100 * r.LostBefore.Mean() / r.TxByAP.Mean()
}

// LostAfterPct returns mean(LostAfter)/mean(TxByAP).
func (r *Table1Row) LostAfterPct() float64 {
	if r.TxByAP.Mean() == 0 {
		return 0
	}
	return 100 * r.LostAfter.Mean() / r.TxByAP.Mean()
}

// Improvement returns the fraction of pre-cooperation losses eliminated by
// cooperation (0.5 = half the losses recovered).
func (r *Table1Row) Improvement() float64 {
	if r.LostBefore.Mean() == 0 {
		return 0
	}
	return 1 - r.LostAfter.Mean()/r.LostBefore.Mean()
}

// Table1 computes the paper's Table 1 from a set of round traces. The
// reception window of a car in a round is [first, last] sequence received
// directly from the AP, exactly the range the protocol's recovery targets.
// Rounds in which a car received nothing are skipped for that car. Each
// round is read in one pass per record kind for all cars together; a car
// listed twice fills both its rows.
func Table1(rounds []*trace.Collector, cars []packet.NodeID) []*Table1Row {
	rows := make([]*Table1Row, len(cars))
	slot := make(map[packet.NodeID]int, len(cars)) // car → its per-round lists
	for i, car := range cars {
		rows[i] = &Table1Row{Car: car}
		if _, ok := slot[car]; !ok {
			slot[car] = len(slot)
		}
	}
	// Each distinct car's lists in the current round: the DATA seqs it
	// received directly and the seqs it recovered through C-ARQ. The
	// DATA seqs the AP sent for its flow are the round's tally's runs.
	type lists struct{ direct, recovered []uint32 }
	per := make([]lists, len(slot))
	for _, round := range rounds {
		for k, l := range per {
			per[k] = lists{l.direct[:0], l.recovered[:0]}
		}
		for i := range round.Rx {
			r := &round.Rx[i]
			if r.Type != packet.TypeData || r.Flow != r.Dst {
				continue
			}
			if k, ok := slot[r.Dst]; ok {
				per[k].direct = append(per[k].direct, r.Seq)
			}
		}
		for _, r := range round.Recovered {
			if k, ok := slot[r.Node]; ok {
				per[k].recovered = append(per[k].recovered, r.Seq)
			}
		}
		for i, car := range cars {
			l := &per[slot[car]]
			l.direct, l.recovered = distinct(l.direct), distinct(l.recovered)
			if len(l.direct) == 0 {
				continue
			}
			first, last := l.direct[0], l.direct[len(l.direct)-1]
			txN, heldN := 0, len(l.direct)
			for _, run := range round.Sent.DataRuns(car) {
				if lo, hi := max(run.First, first), min(run.Last, last); lo <= hi {
					txN += int(hi-lo) + 1
				}
			}
			for _, seq := range l.recovered {
				if _, direct := slices.BinarySearch(l.direct, seq); !direct && seq >= first && seq <= last {
					heldN++
				}
			}
			row := rows[i]
			row.Rounds++
			row.TxByAP.Add(float64(txN))
			row.LostBefore.Add(float64(txN - len(l.direct)))
			row.LostAfter.Add(float64(txN - heldN))
		}
	}
	return rows
}

// distinct sorts seqs in place and returns its distinct values; on its
// own result it is the identity.
func distinct(seqs []uint32) []uint32 {
	slices.Sort(seqs)
	return slices.Compact(seqs)
}

// FormatTable1 renders rows in the layout of the paper's Table 1.
func FormatTable1(rows []*Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %12s %18s %18s\n", "Car", "", "Tx by AP", "Lost before coop", "Lost after coop")
	for i, r := range rows {
		fmt.Fprintf(&b, "%-6d %-10s %12.1f %10.1f (%4.1f%%) %10.1f (%4.1f%%)\n",
			i+1, "Mean", r.TxByAP.Mean(),
			r.LostBefore.Mean(), r.LostBeforePct(),
			r.LostAfter.Mean(), r.LostAfterPct())
		fmt.Fprintf(&b, "%-6s %-10s %12.1f %18.1f %18.1f\n",
			"", "Std.Dev.", r.TxByAP.StdDev(), r.LostBefore.StdDev(), r.LostAfter.StdDev())
	}
	return b.String()
}

// receivers files one round's DATA receptions of a flow under their
// receiving stations in a single scan of the round's Rx records: after
// read, seqs[k] holds the sorted distinct sequence numbers station ids[k]
// received directly. The lists are reused from round to round.
type receivers struct {
	ids  []packet.NodeID // distinct stations, in first-listed order
	seqs [][]uint32
}

func newReceivers(stations []packet.NodeID) *receivers {
	r := &receivers{}
	for _, id := range stations {
		if !slices.Contains(r.ids, id) {
			r.ids = append(r.ids, id)
		}
	}
	r.seqs = make([][]uint32, len(r.ids))
	return r
}

// slot returns the index of id in ids, or -1.
func (r *receivers) slot(id packet.NodeID) int { return slices.Index(r.ids, id) }

func (r *receivers) read(round *trace.Collector, flow packet.NodeID) {
	for k := range r.seqs {
		r.seqs[k] = r.seqs[k][:0]
	}
	for i := range round.Rx {
		rx := &round.Rx[i]
		if rx.Type != packet.TypeData || rx.Flow != flow {
			continue
		}
		if k := r.slot(rx.Dst); k >= 0 {
			r.seqs[k] = append(r.seqs[k], rx.Seq)
		}
	}
	for k := range r.seqs {
		r.seqs[k] = distinct(r.seqs[k])
	}
}

// coopReader reads, one round at a time, the joint reception of a car's
// flow by a set of cars (the paper's "virtual car") and what the car
// holds of its flow after cooperation: its direct receptions plus its
// C-ARQ recoveries.
type coopReader struct {
	car         packet.NodeID
	rx          *receivers
	members     int // rx.ids[:members] are the cars pooled into the joint reception
	joint, held []uint32
}

func newCoopReader(car packet.NodeID, cars []packet.NodeID) *coopReader {
	// car goes last, so the distinct cars keep the leading slots.
	c := &coopReader{car: car, rx: newReceivers(append(slices.Clip(cars), car))}
	c.members = len(c.rx.ids)
	if !slices.Contains(cars, car) {
		c.members--
	}
	return c
}

// read returns the round's joint and held lists, sorted and distinct.
// They are valid until the next read.
func (c *coopReader) read(round *trace.Collector) (joint, held []uint32) {
	c.rx.read(round, c.car)
	c.joint = c.joint[:0]
	for _, seqs := range c.rx.seqs[:c.members] {
		c.joint = append(c.joint, seqs...)
	}
	c.joint = distinct(c.joint)
	c.held = append(c.held[:0], c.rx.seqs[c.rx.slot(c.car)]...)
	for _, r := range round.Recovered {
		if r.Node == c.car {
			c.held = append(c.held, r.Seq)
		}
	}
	c.held = distinct(c.held)
	return c.joint, c.held
}

// DirectSeqs returns the distinct sequence numbers of flow's DATA frames
// that station rx received directly off the air, ascending.
func DirectSeqs(round *trace.Collector, rx, flow packet.NodeID) []uint32 {
	r := newReceivers([]packet.NodeID{rx})
	r.read(round, flow)
	return r.seqs[0]
}

// HeldSeqs returns the distinct sequence numbers car holds of its own
// flow at the end of a round, ascending: its direct receptions plus its
// cooperative recoveries.
func HeldSeqs(round *trace.Collector, car packet.NodeID) []uint32 {
	_, held := newCoopReader(car, nil).read(round)
	return held
}

// window accumulates the span of sorted sequence lists: the reception
// curves' packet-number axis.
type window struct {
	lo, hi uint32
	ok     bool
}

func (w *window) cover(sorted []uint32) {
	if len(sorted) == 0 {
		return
	}
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if !w.ok {
		w.lo, w.hi, w.ok = lo, hi, true
		return
	}
	w.lo, w.hi = min(w.lo, lo), max(w.hi, hi)
}

// ReceptionCurves computes one of Figures 3–5: for each of the cars,
// P(packet number s of flow is received directly by that car) across
// rounds, for every s in the flow's window [lo, hi]. The window spans
// the earliest to the latest sequence any of the cars received directly
// in any round (the union of all reception windows, i.e. the paper's
// packet-number axis); ok is false when none did. Each round's
// receptions are read once for all the cars.
func ReceptionCurves(rounds []*trace.Collector, flow packet.NodeID, cars []packet.NodeID) (lo, hi uint32, curves []*stats.Series, ok bool) {
	rx := newReceivers(cars)
	runs := make([][]uint32, len(rx.ids))
	var w window
	for _, round := range rounds {
		rx.read(round, flow)
		for k, seqs := range rx.seqs {
			w.cover(seqs)
			runs[k] = append(runs[k], seqs...)
		}
	}
	if !w.ok {
		return 0, 0, nil, false
	}
	curves = make([]*stats.Series, len(cars))
	for i, car := range cars {
		curves[i] = seqSeries(fmt.Sprintf("Rx in car %v", car), runs[rx.slot(car)], len(rounds), w.lo, w.hi)
	}
	return w.lo, w.hi, curves, true
}

// CoopCurves computes one of Figures 6–8: P(car holds its own packet s
// after the Cooperative-ARQ phase) against P(packet s of car's flow was
// received directly by any of the cars), the paper's "Joint Rx in Car 1,
// 2 or 3" oracle, for every s in the window of car's flow as
// ReceptionCurves defines it. Each round is read once.
func CoopCurves(rounds []*trace.Collector, car packet.NodeID, cars []packet.NodeID) (lo, hi uint32, after, joint *stats.Series, ok bool) {
	c := newCoopReader(car, cars)
	var jointRuns, heldRuns []uint32
	var w window
	for _, round := range rounds {
		j, h := c.read(round)
		w.cover(j)
		jointRuns = append(jointRuns, j...)
		heldRuns = append(heldRuns, h...)
	}
	if !w.ok {
		return 0, 0, nil, nil, false
	}
	after = seqSeries(fmt.Sprintf("Rx in car %v after coop", car), heldRuns, len(rounds), w.lo, w.hi)
	joint = seqSeries("Joint Rx in any car", jointRuns, len(rounds), w.lo, w.hi)
	return w.lo, w.hi, after, joint, true
}

// seqSeries samples, for every s in [lo, hi] (lo <= hi), the fraction
// of the rounds whose distinct sequence list holds s. runs is every
// round's list concatenated, so the number of times s occurs in it is
// the number of rounds that hold s, and the cost is linear in the window
// plus the runs.
func seqSeries(name string, runs []uint32, rounds int, lo, hi uint32) *stats.Series {
	hits := make([]int, int(hi-lo)+1)
	for _, seq := range runs {
		if seq >= lo && seq <= hi {
			hits[seq-lo]++
		}
	}
	s := &stats.Series{
		Name: name,
		X:    make([]float64, 0, len(hits)),
		Y:    make([]float64, 0, len(hits)),
	}
	for i, k := range hits {
		var p stats.Proportion
		p.AddN(k, rounds)
		s.Append(float64(lo+uint32(i)), p.Estimate())
	}
	return s
}

// CoverageEfficiency returns the mean (over rounds) fraction of the
// receivable stream the car ends up holding: |held ∩ joint| / |joint|,
// where joint is everything any platoon member received of the car's
// flow. It is the corridor scenario's headline metric — without
// cooperation it equals the car's own hit rate; with C-ARQ it approaches
// 1 because gaps are filled in the dark stretches between Infostations.
func CoverageEfficiency(rounds []*trace.Collector, car packet.NodeID, cars []packet.NodeID) float64 {
	c := newCoopReader(car, cars)
	var acc stats.Accumulator
	for _, round := range rounds {
		joint, held := c.read(round)
		if len(joint) == 0 {
			continue
		}
		got := 0
		for _, seq := range joint {
			if _, ok := slices.BinarySearch(held, seq); ok {
				got++
			}
		}
		acc.Add(float64(got) / float64(len(joint)))
	}
	return acc.Mean()
}

// OptimalityGap quantifies how far the after-cooperation curve falls from
// the joint-reception oracle: the paper's claim is that the two are
// "almost coincident". Both series must share the same X grid.
func OptimalityGap(afterCoop, joint *stats.Series) (maxGap, meanGap float64) {
	return stats.MaxAbsDiff(afterCoop, joint), stats.MeanAbsDiff(afterCoop, joint)
}
