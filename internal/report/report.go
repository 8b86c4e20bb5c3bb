// Package report renders the reproduction's experiment outputs: the
// paper-layout Table 1, the Figure 3-8 reception-probability series (as
// gnuplot-ready data plus ASCII charts), and the ablation/extension
// summaries. It is shared by cmd/experiments and the benchmark harness so
// both produce identical artefacts.
package report

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/packet"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Table1 renders the paper's Table 1 from a testbed run, with the
// improvement column appended.
func Table1(res *scenario.TestbedResult) string {
	rows := analysis.Table1(res.Rounds, res.CarIDs)
	var b strings.Builder
	b.WriteString("Table 1. Average values on the number of packets received and lost in the cars.\n\n")
	b.WriteString(analysis.FormatTable1(rows))
	b.WriteString("\n")
	for i, r := range rows {
		fmt.Fprintf(&b, "car %d: %.0f%% of pre-cooperation losses recovered (over %d rounds)\n",
			i+1, 100*r.Improvement(), r.Rounds)
	}
	return b.String()
}

// Table1Rows exposes the raw rows for programmatic checks.
func Table1Rows(res *scenario.TestbedResult) []*analysis.Table1Row {
	return analysis.Table1(res.Rounds, res.CarIDs)
}

// RowsFor computes Table-1 style rows for any scenario's round traces,
// so non-testbed experiments (highway, two-way) get the same per-car
// loss/improvement summary without faking a TestbedResult.
func RowsFor(rounds []*trace.Collector, cars []packet.NodeID) []*analysis.Table1Row {
	return analysis.Table1(rounds, cars)
}

// ReceptionFigure renders Figure 3/4/5 for one car's flow: probability of
// reception of that flow's packets at every car, across the packet-number
// window, plus the per-region means.
type ReceptionFigure struct {
	Flow    packet.NodeID
	Window  [2]uint32
	Series  []*stats.Series
	Regions *analysis.RegionReport
}

// NewReceptionFigure computes the figure data for flow `flow`.
func NewReceptionFigure(rounds []*trace.Collector, cars []packet.NodeID, flow packet.NodeID) (*ReceptionFigure, error) {
	lo, hi, series, ok := analysis.ReceptionCurves(rounds, flow, cars)
	if !ok {
		return nil, fmt.Errorf("report: no reception window for flow %v", flow)
	}
	return &ReceptionFigure{
		Flow:    flow,
		Window:  [2]uint32{lo, hi},
		Series:  series,
		Regions: analysis.NewRegionReport(analysis.SplitRegions(lo, hi), series...),
	}, nil
}

// String renders the figure as an ASCII chart plus region table.
func (f *ReceptionFigure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Probability of reception of packets addressed to car %v (window %d..%d)\n\n",
		f.Flow, f.Window[0], f.Window[1])
	b.WriteString(stats.AsciiChart(72, 16, f.Series...))
	b.WriteString("\n")
	b.WriteString(f.Regions.String())
	return b.String()
}

// GnuplotData emits the figure's series as gnuplot blocks.
func (f *ReceptionFigure) GnuplotData() string {
	var b strings.Builder
	for _, s := range f.Series {
		b.WriteString(s.GnuplotData())
		b.WriteString("\n\n")
	}
	return b.String()
}

// SVG renders the figure as a standalone SVG document in the paper's
// visual style.
func (f *ReceptionFigure) SVG() string {
	c := plot.Chart{
		Title:  fmt.Sprintf("Probability of reception in packets addressed to car %v", f.Flow),
		XLabel: "Packet number",
		YLabel: "Prob. of Reception",
		YMin:   0, YMax: 1,
		Series: f.Series,
	}
	return c.SVG()
}

// CoopFigure renders Figure 6/7/8 for one car: the probability of holding
// each own-flow packet after the Cooperative-ARQ phase against the joint
// ("virtual car") reception oracle.
type CoopFigure struct {
	Car       packet.NodeID
	Window    [2]uint32
	AfterCoop *stats.Series
	Joint     *stats.Series
	MaxGap    float64
	MeanGap   float64
}

// NewCoopFigure computes the figure data for one car.
func NewCoopFigure(rounds []*trace.Collector, cars []packet.NodeID, car packet.NodeID) (*CoopFigure, error) {
	lo, hi, after, joint, ok := analysis.CoopCurves(rounds, car, cars)
	if !ok {
		return nil, fmt.Errorf("report: no reception window for car %v", car)
	}
	maxGap, meanGap := analysis.OptimalityGap(after, joint)
	return &CoopFigure{
		Car:       car,
		Window:    [2]uint32{lo, hi},
		AfterCoop: after, Joint: joint,
		MaxGap: maxGap, MeanGap: meanGap,
	}, nil
}

// String renders the figure as an ASCII chart plus the optimality gap.
func (f *CoopFigure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Probability of reception with C-ARQ in car %v vs joint reception (window %d..%d)\n\n",
		f.Car, f.Window[0], f.Window[1])
	b.WriteString(stats.AsciiChart(72, 16, f.AfterCoop, f.Joint))
	fmt.Fprintf(&b, "\noptimality gap: max %.3f, mean %.3f (0 = after-coop curve coincides with the virtual-car oracle)\n",
		f.MaxGap, f.MeanGap)
	return b.String()
}

// GnuplotData emits the figure's two series as gnuplot blocks.
func (f *CoopFigure) GnuplotData() string {
	return f.AfterCoop.GnuplotData() + "\n\n" + f.Joint.GnuplotData()
}

// SVG renders the figure as a standalone SVG document.
func (f *CoopFigure) SVG() string {
	c := plot.Chart{
		Title:  fmt.Sprintf("Probability of reception with C-ARQ in car %v", f.Car),
		XLabel: "Packet number",
		YLabel: "Prob. of Reception",
		YMin:   0, YMax: 1,
		Series: []*stats.Series{f.AfterCoop, f.Joint},
	}
	return c.SVG()
}

// OverheadSummary aggregates protocol overhead across rounds.
func OverheadSummary(rounds []*trace.Collector) analysis.Overhead {
	var total analysis.Overhead
	for _, r := range rounds {
		o := analysis.MeasureOverhead(r)
		total.DataTx += o.DataTx
		total.HelloTx += o.HelloTx
		total.RequestTx += o.RequestTx
		total.ResponseTx += o.ResponseTx
		total.HelloBytes += o.HelloBytes
		total.RequestBytes += o.RequestBytes
		total.ResponseBytes += o.ResponseBytes
	}
	return total
}

// FormatOverhead renders an overhead summary.
func FormatOverhead(name string, o analysis.Overhead) string {
	return fmt.Sprintf("%-24s data=%d hello=%d request=%d (%d B) response=%d (%d B) control-total=%d\n",
		name, o.DataTx, o.HelloTx, o.RequestTx, o.RequestBytes, o.ResponseTx, o.ResponseBytes, o.ControlTx())
}
