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
// Rounds in which a car received nothing are skipped for that car.
func Table1(rounds []*trace.Collector, cars []packet.NodeID) []*Table1Row {
	rows := make([]*Table1Row, len(cars))
	for i, car := range cars {
		rows[i] = &Table1Row{Car: car}
	}
	for _, round := range rounds {
		for i, car := range cars {
			direct := round.DirectRxSet(car, car)
			if len(direct) == 0 {
				continue
			}
			first, last := seqBounds(direct)
			txN := 0
			for _, seq := range round.DataSentSeqs(car) {
				if seq >= first && seq <= last {
					txN++
				}
			}
			held := round.HeldSet(car)
			heldN := 0
			for seq := range held {
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

// seqBounds returns the min and max keys of a non-empty set.
func seqBounds(set map[uint32]bool) (lo, hi uint32) {
	first := true
	for s := range set {
		if first {
			lo, hi = s, s
			first = false
			continue
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return lo, hi
}

// Window returns the sequence range over which reception curves are
// plotted for a flow: the span from the earliest to the latest sequence
// any of the cars received directly in any round (the union of all
// reception windows, i.e. the paper's packet-number axis).
func Window(rounds []*trace.Collector, flow packet.NodeID, cars []packet.NodeID) (lo, hi uint32, ok bool) {
	first := true
	for _, round := range rounds {
		joint := round.JointRxSet(flow, cars...)
		if len(joint) == 0 {
			continue
		}
		l, h := seqBounds(joint)
		if first {
			lo, hi, first = l, h, false
			continue
		}
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
	}
	return lo, hi, !first
}

// ReceptionSeries computes P(packet number s of `flow` is received
// directly by `rx`) across rounds, for s in [lo, hi] — one curve of
// Figures 3–5.
func ReceptionSeries(rounds []*trace.Collector, flow, rx packet.NodeID, lo, hi uint32) *stats.Series {
	return seqSeries(fmt.Sprintf("Rx in %v of flow %v", rx, flow), rounds, lo, hi,
		func(round *trace.Collector) map[uint32]bool { return round.DirectRxSet(rx, flow) })
}

// AfterCoopSeries computes P(car holds its own packet s after the
// Cooperative-ARQ phase) for s in [lo, hi] — the "after coop" curve of
// Figures 6–8.
func AfterCoopSeries(rounds []*trace.Collector, car packet.NodeID, lo, hi uint32) *stats.Series {
	return seqSeries(fmt.Sprintf("Rx in %v after coop", car), rounds, lo, hi,
		func(round *trace.Collector) map[uint32]bool { return round.HeldSet(car) })
}

// JointSeries computes P(packet s of `flow` was received directly by any
// of the cars) — the paper's "Joint Rx in Car 1, 2 or 3" oracle curve.
func JointSeries(rounds []*trace.Collector, flow packet.NodeID, cars []packet.NodeID, lo, hi uint32) *stats.Series {
	return seqSeries(fmt.Sprintf("Joint Rx of flow %v", flow), rounds, lo, hi,
		func(round *trace.Collector) map[uint32]bool { return round.JointRxSet(flow, cars...) })
}

// seqSeries samples, for every s in [lo, hi], the fraction of rounds
// whose set contains s. Each round's set is built once and tallied into
// per-sequence hit counts, so the cost is linear in the window plus the
// rounds' receptions rather than their product.
func seqSeries(name string, rounds []*trace.Collector, lo, hi uint32, set func(*trace.Collector) map[uint32]bool) *stats.Series {
	s := &stats.Series{Name: name}
	if lo > hi {
		return s
	}
	hits := make([]int, int(hi-lo)+1)
	for _, round := range rounds {
		for seq := range set(round) {
			if seq >= lo && seq <= hi {
				hits[seq-lo]++
			}
		}
	}
	s.X = make([]float64, 0, len(hits))
	s.Y = make([]float64, 0, len(hits))
	for i, k := range hits {
		var p stats.Proportion
		p.AddN(k, len(rounds))
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
	var acc stats.Accumulator
	for _, round := range rounds {
		joint := round.JointRxSet(car, cars...)
		if len(joint) == 0 {
			continue
		}
		held := round.HeldSet(car)
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

// OptimalityGap quantifies how far the after-cooperation curve falls from
// the joint-reception oracle: the paper's claim is that the two are
// "almost coincident". Both series must share the same X grid.
func OptimalityGap(afterCoop, joint *stats.Series) (maxGap, meanGap float64) {
	return stats.MaxAbsDiff(afterCoop, joint), stats.MeanAbsDiff(afterCoop, joint)
}
