package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/carq"
	"repro/internal/harness"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/plot"
	"repro/internal/radio"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The experiment catalogue. Registration order is the `-exp all` order.
func init() {
	harness.Register(harness.Experiment{
		Name: "table1", Aliases: []string{"figures"},
		Title: "Canonical urban testbed: Table 1 and Figures 2-8 from one set of traces",
		Run:   table1AndFigures,
	})
	harness.Register(harness.Experiment{
		Name:  "batch",
		Title: "A1: batched REQUEST optimisation vs per-packet REQUEST",
		Run:   batchAblation,
	})
	harness.Register(harness.Experiment{
		Name:  "selection",
		Title: "A2: cooperator selection policies",
		Run:   selectionAblation,
	})
	harness.Register(harness.Experiment{
		Name:  "apretx",
		Title: "A3: AP-side retransmissions vs pure C-ARQ",
		Run:   apRetxAblation,
	})
	harness.Register(harness.Experiment{
		Name:  "platoon",
		Title: "A4: platoon size sweep - cooperative diversity vs residual loss",
		Run:   platoonSweep,
	})
	harness.Register(harness.Experiment{
		Name:  "download",
		Title: "A5: AP visits to download a file, with and without cooperation",
		Run:   download,
	})
	harness.Register(harness.Experiment{
		Name:  "bitrate",
		Title: "A6: AP bit-rate sweep - does C-ARQ keep delivery ahead?",
		Run:   bitrateSweep,
	})
	harness.Register(harness.Experiment{
		Name:  "epidemic",
		Title: "A7: C-ARQ vs push-based epidemic flooding",
		Run:   epidemicComparison,
	})
	harness.Register(harness.Experiment{
		Name:  "highway",
		Title: "A8: highway drive-thru - packet budget and losses vs speed",
		Run:   highwaySweep,
	})
	harness.Register(harness.Experiment{
		Name:  "combining",
		Title: "A9: frame combining (C-ARQ/FC) with AP repeats",
		Run:   frameCombining,
	})
	harness.Register(harness.Experiment{
		Name:  "adaptive",
		Title: "A10: cooperator-adaptive AP retransmissions across platoon sizes",
		Run:   adaptiveRepeats,
	})
	harness.Register(harness.Experiment{
		Name:  "corridor",
		Title: "A11: multi-Infostation corridor coverage efficiency",
		Run:   corridor,
	})
	harness.Register(harness.Experiment{
		Name:  "ttl",
		Title: "A12: cooperator recruitment TTL vs the tail car's optimality gap",
		Run:   recruitmentTTL,
	})
	harness.Register(harness.Experiment{
		Name:  "dynamics",
		Title: "A13: recovery dynamics - missing packets vs time in the C-ARQ phase",
		Run:   recoveryDynamics,
	})
	harness.Register(harness.Experiment{
		Name:  "twoway",
		Title: "A14: two-way highway - opposing-traffic relay cars serve the platoon",
		Run:   twoWay,
	})
	harness.Register(harness.Experiment{
		Name:  "trafficgrid",
		Title: "A15: signalized urban grid - platoon compresses at red lights among IDM traffic",
		Run:   trafficGrid,
	})
	harness.Register(harness.Experiment{
		Name:  "stopgo",
		Title: "A16: congested highway - a stop-and-go wave crosses the platoon mid-drive-thru",
		Run:   stopGo,
	})
	harness.Register(harness.Experiment{
		Name:  "cityscale",
		Title: "A17: city-scale C-ARQ - hundreds of beaconing vehicles, corner Infostations, density sweep",
		Run:   cityScale,
	})
	harness.Register(harness.Experiment{
		Name:  "citydemand",
		Title: "A18: demand-driven city - OD rush corridors, actuated signals, demand-scale sweep",
		Run:   cityDemand,
	})
}

// table1AndFigures runs the canonical urban testbed once and regenerates
// Table 1 and Figures 3-8 from the same traces, exactly as the paper
// post-processed one set of captures.
func table1AndFigures(c *harness.Context) error {
	cfg := scenario.DefaultTestbed()
	cfg.Rounds = c.Rounds()
	var res *scenario.TestbedResult
	b := c.Batch()
	harness.Add(b, "canonical", cfg, &res)
	if err := b.Go(); err != nil {
		return err
	}

	if err := c.Emit("table1.txt", harness.OutputRaw, report.Table1(res)); err != nil {
		return err
	}
	// The reproduction's Figure 2: the testbed map.
	if err := c.Emit("fig2_map.svg", harness.OutputPlot, report.TestbedMapSVG()); err != nil {
		return err
	}

	for i, flow := range res.CarIDs {
		fig, err := report.NewReceptionFigure(res.Rounds, res.CarIDs, flow)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("fig%d", 3+i)
		if err := c.Emit(name+".txt", harness.OutputRaw, fig.String()); err != nil {
			return err
		}
		if err := c.Emit(name+".dat", harness.OutputTable, fig.GnuplotData()); err != nil {
			return err
		}
		if err := c.Emit(name+".svg", harness.OutputPlot, fig.SVG()); err != nil {
			return err
		}
	}
	for i, car := range res.CarIDs {
		fig, err := report.NewCoopFigure(res.Rounds, res.CarIDs, car)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("fig%d", 6+i)
		if err := c.Emit(name+".txt", harness.OutputRaw, fig.String()); err != nil {
			return err
		}
		if err := c.Emit(name+".dat", harness.OutputTable, fig.GnuplotData()); err != nil {
			return err
		}
		if err := c.Emit(name+".svg", harness.OutputPlot, fig.SVG()); err != nil {
			return err
		}
	}
	return nil
}

// batchAblation compares per-packet REQUESTs with the paper's proposed
// batched-REQUEST optimisation: overhead and recovery latency.
func batchAblation(c *harness.Context) error {
	b := c.Batch()
	arms := []bool{false, true}
	results := make([]*scenario.TestbedResult, len(arms))
	for i, batch := range arms {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = c.CappedRounds(10)
		cfg.BatchRequests = batch
		point := "per-packet"
		if batch {
			point = "batched"
		}
		harness.Add(b, point, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A1: batched REQUEST (all missing seqs in one frame) vs per-packet REQUEST\n\n")
	for i, batch := range arms {
		res := results[i]
		name := "per-packet"
		if batch {
			name = "batched"
		}
		out.WriteString(report.FormatOverhead(name, report.OverheadSummary(res.Rounds)))
		rows := report.Table1Rows(res)
		var lat []float64
		for _, car := range res.CarIDs {
			lat = append(lat, analysis.LastRecoveryLatencies(res.Rounds, car)...)
		}
		fmt.Fprintf(&out, "%-24s post-coop loss: car1=%.1f%% car2=%.1f%% car3=%.1f%%  mean recovery latency=%.2fs (n=%d)\n\n",
			"", rows[0].LostAfterPct(), rows[1].LostAfterPct(), rows[2].LostAfterPct(),
			stats.Mean(lat), len(lat))
	}
	return c.Emit("ablation_batch.txt", harness.OutputRaw, out.String())
}

// selectionAblation compares cooperator-selection policies (the paper's
// future-work question).
func selectionAblation(c *harness.Context) error {
	arms := []struct {
		name string
		sel  carq.Selection
	}{
		{"all one-hop (paper)", carq.SelectAll{}},
		{"best-1 by signal", carq.SelectBestK{K: 1}},
		{"best-2 by signal", carq.SelectBestK{K: 2}},
		{"freshest-1", carq.SelectFreshestK{K: 1}},
	}
	b := c.Batch()
	results := make([]*scenario.TestbedResult, len(arms))
	for i, tc := range arms {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = c.CappedRounds(10)
		cfg.Selection = tc.sel
		harness.Add(b, tc.name, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A2: cooperator selection policy\n\n")
	for i, tc := range arms {
		rows := report.Table1Rows(results[i])
		_, post := meanLoss(rows)
		var impr float64
		for _, row := range rows {
			impr += row.Improvement()
		}
		o := report.OverheadSummary(results[i].Rounds)
		fmt.Fprintf(&out, "%-22s mean post-coop loss=%.1f%% mean improvement=%.2f responses=%d\n",
			tc.name, post, impr/float64(len(rows)), o.ResponseTx)
	}
	return c.Emit("ablation_selection.txt", harness.OutputRaw, out.String())
}

// apRetxAblation compares pure C-ARQ with spending coverage time on
// AP-side retransmissions.
func apRetxAblation(c *harness.Context) error {
	arms := []struct {
		name    string
		repeats int
		coop    bool
	}{
		{"no-coop, 1x", 1, false},
		{"no-coop, 2x repeats", 2, false},
		{"no-coop, 3x repeats", 3, false},
		{"C-ARQ,  1x (paper)", 1, true},
	}
	b := c.Batch()
	results := make([]*scenario.TestbedResult, len(arms))
	for i, tc := range arms {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = c.CappedRounds(10)
		cfg.APRepeats = tc.repeats
		cfg.Coop = tc.coop
		harness.Add(b, tc.name, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A3: AP-side retransmissions vs pure C-ARQ\n")
	out.WriteString("(repeats>1 divides the AP's new-data budget; distinct packets delivered per pass matter)\n\n")
	for i, tc := range arms {
		res := results[i]
		// Distinct packets held at the end per car per round, and the
		// AP airtime spent. With repeats the AP sends the same seq
		// several times, so "held" must be compared against distinct
		// seqs offered.
		var held, offered float64
		for _, round := range res.Rounds {
			for _, car := range res.CarIDs {
				held += float64(len(analysis.HeldSeqs(round, car)))
				offered += float64(len(round.DataSentSeqs(car)))
			}
		}
		n := float64(len(res.Rounds) * len(res.CarIDs))
		fmt.Fprintf(&out, "%-22s distinct held/car/round=%.1f of %.1f offered (%.1f%%)\n",
			tc.name, held/n, offered/n, 100*held/offered)
	}
	return c.Emit("ablation_apretx.txt", harness.OutputRaw, out.String())
}

// platoonSweep measures residual loss versus platoon size (diversity).
func platoonSweep(c *harness.Context) error {
	const maxCars = 6
	b := c.Batch()
	results := make([]*scenario.TestbedResult, maxCars)
	for cars := 1; cars <= maxCars; cars++ {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = c.CappedRounds(8)
		cfg.Cars = cars
		harness.Add(b, fmt.Sprintf("%d-cars", cars), cfg, &results[cars-1])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A4: platoon size sweep — cooperative diversity vs residual loss\n\n")
	out.WriteString("cars  pre-coop%%  post-coop%%  improvement\n")
	var dat strings.Builder
	dat.WriteString("# cars pre post\n")
	for cars := 1; cars <= maxCars; cars++ {
		pre, post := meanLoss(report.Table1Rows(results[cars-1]))
		impr := 0.0
		if pre > 0 {
			impr = 1 - post/pre
		}
		fmt.Fprintf(&out, "%4d  %9.1f  %10.1f  %11.2f\n", cars, pre, post, impr)
		fmt.Fprintf(&dat, "%d %g %g\n", cars, pre, post)
	}
	if err := c.Emit("ext_platoon.dat", harness.OutputTable, dat.String()); err != nil {
		return err
	}
	return c.Emit("ext_platoon.txt", harness.OutputRaw, out.String())
}

// download measures AP visits needed to assemble a file, with and without
// cooperation (the paper's headline future-work metric).
func download(c *harness.Context) error {
	arms := []bool{false, true}
	b := c.Batch()
	results := make([]*scenario.DownloadResult, len(arms))
	for i, coop := range arms {
		cfg := scenario.DefaultDownload()
		cfg.Coop = coop
		point := "no-coop"
		if coop {
			point = "C-ARQ"
		}
		harness.Add(b, point, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A5: AP visits to download a file (220 blocks/car)\n\n")
	for i, coop := range arms {
		res := results[i]
		mode := "no-coop"
		if coop {
			mode = "C-ARQ"
		}
		for _, car := range res.Cars {
			fmt.Fprintf(&out, "%-8s car %v: completed=%v visits=%d time=%v blocks=%d/%d\n",
				mode, car.Car, car.Completed, car.Visits, car.CompletionTime.Round(time.Second), car.Blocks, res.Config.FileBlocks)
		}
		out.WriteString("\n")
	}
	return c.Emit("ext_download.txt", harness.OutputRaw, out.String())
}

// bitrateSweep asks the paper's "can C-ARQ let the AP use a higher bit
// rate?" question.
func bitrateSweep(c *harness.Context) error {
	mods := radio.Modulations()
	b := c.Batch()
	results := make([]*scenario.TestbedResult, len(mods))
	for i, mod := range mods {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = c.CappedRounds(8)
		cfg.Modulation = mod
		// Higher PHY rates free airtime; keep the packet rate fixed so
		// the comparison isolates the PER effect.
		harness.Add(b, mod.Name, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A6: AP bit-rate sweep — losses grow with rate; does C-ARQ keep delivery ahead?\n\n")
	out.WriteString("rate              pre-coop%%  post-coop%%  delivered/car/round\n")
	for i, mod := range mods {
		rows := report.Table1Rows(results[i])
		pre, post := meanLoss(rows)
		var delivered float64
		for _, row := range rows {
			delivered += row.TxByAP.Mean() * (1 - row.LostAfterPct()/100)
		}
		fmt.Fprintf(&out, "%-17s %9.1f  %10.1f  %19.1f\n", mod.Name, pre, post, delivered/float64(len(rows)))
	}
	return c.Emit("ext_bitrate.txt", harness.OutputRaw, out.String())
}

// epidemicComparison pits C-ARQ against push-based epidemic flooding.
func epidemicComparison(c *harness.Context) error {
	epidemicFactory := func(id packet.NodeID, engine *sim.Engine, port *mac.Station, seed int64, obs carq.Observer) (scenario.Node, error) {
		return baseline.NewEpidemicNode(
			id, engine, port,
			sim.Stream(seed, fmt.Sprintf("epidemic-%v", id)), obs)
	}
	arms := []struct {
		name    string
		factory scenario.NodeFactory
	}{
		{"C-ARQ", nil},
		{"epidemic", epidemicFactory},
	}
	b := c.Batch()
	results := make([]*scenario.TestbedResult, len(arms))
	for i, tc := range arms {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = c.CappedRounds(8)
		cfg.Coop = true
		cfg.Factory = tc.factory
		harness.Add(b, tc.name, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A7: C-ARQ vs epidemic flooding in the dark area\n\n")
	for i, tc := range arms {
		_, post := meanLoss(report.Table1Rows(results[i]))
		o := report.OverheadSummary(results[i].Rounds)
		fmt.Fprintf(&out, "%-10s mean residual loss=%.1f%%  recovery transmissions=%d (%d B)\n",
			tc.name, post, o.ResponseTx+o.RequestTx, o.ResponseBytes+o.RequestBytes)
	}
	return c.Emit("ext_epidemic.txt", harness.OutputRaw, out.String())
}

// highwaySweep reproduces the drive-thru loss-versus-speed relationship.
func highwaySweep(c *harness.Context) error {
	speeds := []float64{30, 60, 90, 120}
	b := c.Batch()
	results := make([]*scenario.HighwayResult, len(speeds))
	for i, kmh := range speeds {
		cfg := scenario.DefaultHighway()
		cfg.Rounds = c.CappedRounds(6)
		cfg.SpeedMPS = kmh / 3.6
		harness.Add(b, fmt.Sprintf("%.0f-kmh", kmh), cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A8: highway drive-thru — per-pass packet budget and losses vs speed\n\n")
	out.WriteString("speed(km/h)  window(pkts)  pre-coop%%  post-coop%%\n")
	var dat strings.Builder
	dat.WriteString("# kmh window pre post\n")
	for i, kmh := range speeds {
		res := results[i]
		rows := report.RowsFor(res.Rounds, res.CarIDs)
		pre, post := meanLoss(rows)
		var tx float64
		for _, row := range rows {
			tx += row.TxByAP.Mean()
		}
		tx /= float64(len(rows))
		fmt.Fprintf(&out, "%11.0f  %12.0f  %9.1f  %10.1f\n", kmh, tx, pre, post)
		fmt.Fprintf(&dat, "%g %g %g %g\n", kmh, tx, pre, post)
	}
	if err := c.Emit("ext_highway.dat", harness.OutputTable, dat.String()); err != nil {
		return err
	}
	return c.Emit("ext_highway.txt", harness.OutputRaw, out.String())
}

// frameCombining evaluates the C-ARQ/FC extension (reference [12]): soft
// combining of corrupted copies, in its natural regime of AP repeats.
func frameCombining(c *harness.Context) error {
	arms := []struct {
		name    string
		repeats int
		fc      bool
	}{
		{"C-ARQ, 1x, no FC", 1, false},
		{"C-ARQ, 2x, no FC", 2, false},
		{"C-ARQ, 2x, FC", 2, true},
	}
	b := c.Batch()
	results := make([]*scenario.TestbedResult, len(arms))
	for i, tc := range arms {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = c.CappedRounds(10)
		cfg.APRepeats = tc.repeats
		cfg.FrameCombining = tc.fc
		harness.Add(b, tc.name, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A9: frame combining (C-ARQ/FC, reference [12])\n")
	out.WriteString("Soft copies only exist when packets air more than once, so FC is paired with AP repeats.\n\n")
	for i, tc := range arms {
		pre, post := meanLoss(report.Table1Rows(results[i]))
		fmt.Fprintf(&out, "%-20s mean pre-coop=%.1f%%  mean post-coop=%.1f%%\n", tc.name, pre, post)
	}
	return c.Emit("ext_combining.txt", harness.OutputRaw, out.String())
}

// adaptiveRepeats evaluates the cooperator-adaptive AP retransmission
// scheme the paper's §3.2 leaves as future work, across platoon sizes.
func adaptiveRepeats(c *harness.Context) error {
	type arm struct {
		cars     int
		name     string
		adaptive int
		static   int
	}
	var arms []arm
	for _, cars := range []int{1, 3} {
		arms = append(arms,
			arm{cars, "static 1x", 0, 1},
			arm{cars, "adaptive<=3", 3, 1},
		)
	}
	b := c.Batch()
	results := make([]*scenario.TestbedResult, len(arms))
	for i, tc := range arms {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = c.CappedRounds(8)
		cfg.Cars = tc.cars
		cfg.APRepeats = tc.static
		cfg.AdaptiveAPRepeats = tc.adaptive
		harness.Add(b, fmt.Sprintf("%d-cars %s", tc.cars, tc.name), cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A10: cooperator-adaptive AP retransmissions (paper §3.2 future work)\n")
	out.WriteString("The AP overhears HELLOs and repeats more for poorly-connected cars.\n\n")
	out.WriteString("cars  policy        post-coop%%\n")
	for i, tc := range arms {
		_, post := meanLoss(report.Table1Rows(results[i]))
		fmt.Fprintf(&out, "%4d  %-12s %10.1f\n", tc.cars, tc.name, post)
	}
	return c.Emit("ext_adaptive.txt", harness.OutputRaw, out.String())
}

// corridor evaluates the Figure-1 multi-Infostation deployment: coverage
// efficiency (held fraction of the receivable stream) with and without
// cooperation.
func corridor(c *harness.Context) error {
	arms := []bool{false, true}
	b := c.Batch()
	results := make([]*scenario.CorridorResult, len(arms))
	for i, coop := range arms {
		cfg := scenario.DefaultCorridor()
		cfg.Rounds = c.CappedRounds(8)
		cfg.Coop = coop
		point := "no-coop"
		if coop {
			point = "C-ARQ"
		}
		harness.Add(b, point, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A11: multi-Infostation corridor (the paper's Figure 1 deployment)\n\n")
	for i, coop := range arms {
		res := results[i]
		mode := "no-coop"
		if coop {
			mode = "C-ARQ"
		}
		for _, car := range res.CarIDs {
			eff := analysis.CoverageEfficiency(res.Rounds, car, res.CarIDs)
			fmt.Fprintf(&out, "%-8s car %v: coverage efficiency %.3f\n", mode, car, eff)
		}
		out.WriteString("\n")
	}
	return c.Emit("ext_corridor.txt", harness.OutputRaw, out.String())
}

// recruitmentTTL sweeps the cooperator staleness timeout. The default
// 3-beacon TTL lets shadowing fades on the platoon's weakest link (car 1
// <-> car 3) evict recruitments mid-coverage, so stretches of overheard
// packets are never buffered — the mechanism behind the tail car's
// optimality gap in Figure 8. Longer TTLs nearly close it.
func recruitmentTTL(c *harness.Context) error {
	ttls := []time.Duration{3 * time.Second, 5 * time.Second, 8 * time.Second, 20 * time.Second}
	b := c.Batch()
	results := make([]*scenario.TestbedResult, len(ttls))
	for i, ttl := range ttls {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = c.CappedRounds(10)
		cfg.CandidateTTL = ttl
		harness.Add(b, ttl.String(), cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A12: cooperator recruitment TTL vs the tail car's optimality gap\n\n")
	out.WriteString("TTL    car3 mean gap   car3 post-coop%%\n")
	for i, ttl := range ttls {
		res := results[i]
		_, _, after, joint, ok := analysis.CoopCurves(res.Rounds, 3, res.CarIDs)
		if !ok {
			return fmt.Errorf("no window for car 3")
		}
		_, meanGap := analysis.OptimalityGap(after, joint)
		rows := report.Table1Rows(res)
		fmt.Fprintf(&out, "%-6v %13.4f %17.1f\n", ttl, meanGap, rows[2].LostAfterPct())
	}
	return c.Emit("ablation_ttl.txt", harness.OutputRaw, out.String())
}

// recoveryDynamics renders how each car's missing list drains during the
// Cooperative-ARQ phase — per-packet REQUEST cycling versus the batched
// optimisation, on the same round.
func recoveryDynamics(c *harness.Context) error {
	arms := []bool{false, true}
	b := c.Batch()
	results := make([]*scenario.TestbedResult, len(arms))
	for i, batch := range arms {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = 1
		cfg.BatchRequests = batch
		point := "per-packet"
		if batch {
			point = "batched"
		}
		harness.Add(b, point, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var series []*stats.Series
	var out strings.Builder
	out.WriteString("A13: recovery dynamics — missing packets vs time in the Cooperative-ARQ phase\n\n")
	for i, batch := range arms {
		res := results[i]
		name := "per-packet"
		if batch {
			name = "batched"
		}
		for _, car := range res.CarIDs {
			s := analysis.RecoveryDynamics(res.Rounds[0], car)
			if s.Len() == 0 {
				continue
			}
			s.Name = fmt.Sprintf("car %v (%s)", car, name)
			series = append(series, s)
			half := analysis.HalfRecoveryTime(res.Rounds[0], car)
			fmt.Fprintf(&out, "%-22s initial missing=%3.0f  final=%3.0f  half-recovery=%.1fs\n",
				s.Name, s.Y[0], s.Y[s.Len()-1], half)
		}
	}
	chart := plot.Chart{
		Title:  "Missing packets during the Cooperative-ARQ phase",
		XLabel: "Seconds since phase entry",
		YLabel: "Missing packets",
		Series: series,
	}
	// Derive the Y range from the data (counts, not probabilities).
	chart.FitY(0.05)
	if err := c.Emit("ext_dynamics.svg", harness.OutputPlot, chart.SVG()); err != nil {
		return err
	}
	var dat strings.Builder
	for _, s := range series {
		dat.WriteString(s.GnuplotData())
		dat.WriteString("\n\n")
	}
	if err := c.Emit("ext_dynamics.dat", harness.OutputTable, dat.String()); err != nil {
		return err
	}
	return c.Emit("ext_dynamics.txt", harness.OutputRaw, out.String())
}

// trafficGrid evaluates the microscopic urban-grid scenario (A15): a
// C-ARQ platoon loops a signalized block among closed-loop IDM traffic.
// Red lights compress it bumper-to-bumper (the generalised corner-C
// effect) and the far side of the block is dark. Both arms replay the
// same cached per-round traffic worlds, so the sweep pays the
// closed-loop vehicle dynamics once.
func trafficGrid(c *harness.Context) error {
	arms := []bool{false, true}
	b := c.Batch()
	results := make([]*scenario.TrafficGridResult, len(arms))
	for i, coop := range arms {
		cfg := scenario.DefaultTrafficGrid()
		cfg.Rounds = c.CappedRounds(6)
		cfg.Coop = coop
		point := "no-coop"
		if coop {
			point = "C-ARQ"
		}
		harness.Add(b, point, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A15: signalized urban grid — IDM traffic, fixed-cycle lights, platoon looping the AP block\n")
	out.WriteString("Background vehicles are radio-silent but congest the platoon's streets;\n")
	out.WriteString("red lights compress the platoon (generalised corner-C) before it re-enters coverage.\n\n")
	var dat strings.Builder
	dat.WriteString("# coop meanspeed crawlshare pre post\n")
	for i, coop := range arms {
		res := results[i]
		mode := "no-coop"
		if coop {
			mode = "C-ARQ"
		}
		speed, crawl := trafficSums(res.Traffic)
		nr := float64(len(res.Traffic))
		pre, post := meanLoss(report.RowsFor(res.Rounds, res.CarIDs))
		fmt.Fprintf(&out, "%-8s traffic: mean speed %.1f m/s, crawl share %.1f%%   losses: pre-coop %.1f%%  post-coop %.1f%%\n",
			mode, speed/nr, 100*crawl/nr, pre, post)
		coopFlag := 0
		if coop {
			coopFlag = 1
		}
		fmt.Fprintf(&dat, "%d %g %g %g %g\n", coopFlag, speed/nr, crawl/nr, pre, post)
	}
	// Per-car detail for the C-ARQ arm: queue compression diversity
	// shows up as near-equal post-coop losses across the platoon.
	rows := report.RowsFor(results[1].Rounds, results[1].CarIDs)
	out.WriteString("\nC-ARQ per-car losses:\n")
	for i, row := range rows {
		fmt.Fprintf(&out, "  car%d: pre=%.1f%% post=%.1f%%\n", i+1, row.LostBeforePct(), row.LostAfterPct())
	}
	if err := c.Emit("ext_trafficgrid.dat", harness.OutputTable, dat.String()); err != nil {
		return err
	}
	return c.Emit("ext_trafficgrid.txt", harness.OutputRaw, out.String())
}

// stopGo evaluates the congested-highway scenario (A16): an upstream
// braking perturbation launches a stop-and-go wave through a dense ring
// of IDM vehicles while the C-ARQ platoon drives past the AP. The wave
// stretches the platoon's coverage dwell and its dark-phase recovery
// demand at the same time.
func stopGo(c *harness.Context) error {
	arms := []bool{false, true}
	b := c.Batch()
	results := make([]*scenario.StopGoResult, len(arms))
	for i, coop := range arms {
		cfg := scenario.DefaultStopGo()
		cfg.Rounds = c.CappedRounds(6)
		cfg.Coop = coop
		point := "no-coop"
		if coop {
			point = "C-ARQ"
		}
		harness.Add(b, point, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A16: congested highway — stop-and-go wave through the platoon during the AP drive-thru\n")
	out.WriteString("A vehicle five slots upstream brakes to 1.5 m/s for 20 s; the jam wave crosses the\n")
	out.WriteString("platoon while it is in or near coverage. Arms share cached traffic streams.\n\n")
	var dat strings.Builder
	dat.WriteString("# coop meanspeed crawlshare pre post recoveries\n")
	for i, coop := range arms {
		res := results[i]
		mode := "no-coop"
		if coop {
			mode = "C-ARQ"
		}
		speed, crawl := trafficSums(res.Traffic)
		nr := float64(len(res.Traffic))
		pre, post := meanLoss(report.RowsFor(res.Rounds, res.CarIDs))
		rec := recoveries(res.Rounds)
		fmt.Fprintf(&out, "%-8s traffic: mean speed %.1f m/s, crawl share %.1f%%   losses: pre-coop %.1f%%  post-coop %.1f%%  recoveries=%d\n",
			mode, speed/nr, 100*crawl/nr, pre, post, rec)
		coopFlag := 0
		if coop {
			coopFlag = 1
		}
		fmt.Fprintf(&dat, "%d %g %g %g %g %d\n", coopFlag, speed/nr, crawl/nr, pre, post, rec)
	}
	if err := c.Emit("ext_stopgo.dat", harness.OutputTable, dat.String()); err != nil {
		return err
	}
	return c.Emit("ext_stopgo.txt", harness.OutputRaw, out.String())
}

// cityScale evaluates the city-scale scenario (A17): a 10-car C-ARQ
// platoon circuits four corner Infostations across a 3 km signalized
// grid while every background vehicle beacons — hundreds of MAC stations,
// the workload the spatially-indexed radio medium exists for. The sweep
// varies background vehicle density (channel load and station count) and
// adds a no-cooperation baseline at the densest point.
func cityScale(c *harness.Context) error {
	type arm struct {
		name       string
		background int
		coop       bool
	}
	arms := []arm{
		{"sparse-100", 100, true},
		{"medium-200", 200, true},
		{"dense-300", 300, true},
		{"dense-300-nocoop", 300, false},
	}
	b := c.Batch()
	results := make([]*scenario.CityScaleResult, len(arms))
	for i, tc := range arms {
		cfg := scenario.DefaultCityScale()
		cfg.Rounds = c.CappedRounds(2)
		cfg.Background = tc.background
		cfg.Coop = tc.coop
		harness.Add(b, tc.name, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A17: city-scale C-ARQ — 3x3 km signalized grid, every vehicle a beaconing station,\n")
	out.WriteString("10-car platoon circuits 4 corner Infostations (synchronised carousel), density sweep.\n")
	out.WriteString("The reception horizon (~300 m) is a small fraction of the city: the spatially-indexed\n")
	out.WriteString("medium delivers each frame to dozens of stations instead of all of them.\n\n")
	out.WriteString("arm               stations  pre-coop%  post-coop%  recoveries  mean-speed(m/s)\n")
	var dat strings.Builder
	dat.WriteString("# background coop stations pre post recoveries\n")
	for i, tc := range arms {
		res := results[i]
		pre, post := meanLoss(report.RowsFor(res.Rounds, res.CarIDs))
		rec := recoveries(res.Rounds)
		speed, _ := trafficSums(res.Traffic)
		speed /= float64(len(res.Traffic))
		fmt.Fprintf(&out, "%-17s %8d  %9.1f  %10.1f  %10d  %15.1f\n",
			tc.name, res.Stations(), pre, post, rec, speed)
		coopFlag := 0
		if tc.coop {
			coopFlag = 1
		}
		fmt.Fprintf(&dat, "%d %d %d %g %g %d\n", tc.background, coopFlag, res.Stations(), pre, post, rec)
	}
	if err := c.Emit("ext_cityscale.dat", harness.OutputTable, dat.String()); err != nil {
		return err
	}
	return c.Emit("ext_cityscale.txt", harness.OutputRaw, out.String())
}

// cityDemand evaluates the demand-driven city scenario (A18): the
// background population comes from an origin–destination table — Poisson
// injection on two east-west arterials and two north-south connectors,
// shortest-path routes, exit at the destination — so the density the
// platoon meets follows rush corridors instead of flat noise, and the
// lights run queue-actuated control. The sweep scales the whole demand
// table and contrasts actuated against fixed-cycle signals at the
// nominal load.
func cityDemand(c *harness.Context) error {
	type arm struct {
		name     string
		scale    float64
		actuated bool
	}
	arms := []arm{
		{"demand-0.6", 0.6, true},
		{"demand-1.0", 1.0, true},
		{"demand-1.4", 1.4, true},
		{"demand-1.0-fixed", 1.0, false},
	}
	b := c.Batch()
	results := make([]*scenario.CityDemandResult, len(arms))
	for i, tc := range arms {
		cfg := scenario.DefaultCityDemand()
		cfg.Rounds = c.CappedRounds(2)
		cfg.DemandScale = tc.scale
		cfg.Actuated = tc.actuated
		harness.Add(b, tc.name, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A18: demand-driven city — OD table (two east-west arterials, two north-south\n")
	out.WriteString("connectors, Poisson injection, shortest-path routes, exit at destination) and\n")
	out.WriteString("queue-actuated signals. Densities form rush corridors; the demand-scale sweep\n")
	out.WriteString("moves the city from fluid to saturated, and the fixed-cycle arm isolates the\n")
	out.WriteString("signal controller's effect at nominal load.\n\n")
	out.WriteString("arm               vehicles  mean-speed(m/s)  crawl%  pre-coop%  post-coop%  recoveries\n")
	var dat strings.Builder
	dat.WriteString("# scale actuated vehicles meanspeed crawlshare pre post recoveries\n")
	for i, tc := range arms {
		res := results[i]
		var vehicles float64
		for _, n := range res.Vehicles {
			vehicles += float64(n)
		}
		vehicles /= float64(len(res.Vehicles))
		speed, crawl := trafficSums(res.Traffic)
		nr := float64(len(res.Traffic))
		pre, post := meanLoss(report.RowsFor(res.Rounds, res.CarIDs))
		rec := recoveries(res.Rounds)
		fmt.Fprintf(&out, "%-17s %8.1f  %15.1f  %6.1f  %9.1f  %10.1f  %10d\n",
			tc.name, vehicles, speed/nr, 100*crawl/nr, pre, post, rec)
		actFlag := 0
		if tc.actuated {
			actFlag = 1
		}
		fmt.Fprintf(&dat, "%g %d %g %g %g %g %g %d\n",
			tc.scale, actFlag, vehicles, speed/nr, crawl/nr, pre, post, rec)
	}
	if err := c.Emit("ext_citydemand.dat", harness.OutputTable, dat.String()); err != nil {
		return err
	}
	return c.Emit("ext_citydemand.txt", harness.OutputRaw, out.String())
}

// twoWay evaluates the two-way highway extension: opposing-traffic relay
// cars that passed the AP after the platoon meet it head-on on the return
// leg and serve its Cooperative-ARQ REQUESTs.
func twoWay(c *harness.Context) error {
	arms := []struct {
		name   string
		coop   bool
		relays int
	}{
		{"no-coop", false, 4},
		{"platoon-only", true, 0},
		{"opposing-4", true, 4},
	}
	b := c.Batch()
	results := make([]*scenario.TwoWayResult, len(arms))
	for i, tc := range arms {
		cfg := scenario.DefaultTwoWay()
		cfg.Rounds = c.CappedRounds(6)
		cfg.Coop = tc.coop
		cfg.RelayCars = tc.relays
		harness.Add(b, tc.name, cfg, &results[i])
	}
	if err := b.Go(); err != nil {
		return err
	}

	var out strings.Builder
	out.WriteString("A14: two-way highway — opposing-traffic relay cars serve the platoon's C-ARQ phase\n")
	out.WriteString("The AP broadcasts a fixed carousel; relay cars cross coverage after the platoon\n")
	out.WriteString("and stream past it head-on while it recovers in the dark return leg.\n\n")
	out.WriteString("arm            pre-coop%  post-coop%  recoveries  from-relays\n")
	var dat strings.Builder
	dat.WriteString("# relays pre post relayshare\n")
	for i, tc := range arms {
		res := results[i]
		pre, post := meanLoss(report.RowsFor(res.Rounds, res.CarIDs))
		relay := make(map[packet.NodeID]bool, len(res.RelayIDs))
		for _, id := range res.RelayIDs {
			relay[id] = true
		}
		var total, fromRelay int
		for _, round := range res.Rounds {
			for _, rec := range round.Recovered {
				total++
				if relay[rec.From] {
					fromRelay++
				}
			}
		}
		fmt.Fprintf(&out, "%-14s %9.1f  %10.1f  %10d  %11d\n",
			tc.name, pre, post, total, fromRelay)
		if tc.coop {
			share := 0.0
			if total > 0 {
				share = float64(fromRelay) / float64(total)
			}
			fmt.Fprintf(&dat, "%d %g %g %g\n", tc.relays, pre, post, share)
		}
	}
	if err := c.Emit("ext_twoway.dat", harness.OutputTable, dat.String()); err != nil {
		return err
	}
	return c.Emit("ext_twoway.txt", harness.OutputRaw, out.String())
}

// meanLoss returns the rows' mean pre- and post-cooperation loss
// percentages.
func meanLoss(rows []*analysis.Table1Row) (pre, post float64) {
	for _, row := range rows {
		pre += row.LostBeforePct()
		post += row.LostAfterPct()
	}
	n := float64(len(rows))
	return pre / n, post / n
}

// trafficSums sums the rounds' mean speeds and crawl shares; callers
// divide by the round count where they print.
func trafficSums(sums []scenario.TrafficSummary) (speed, crawl float64) {
	for _, s := range sums {
		speed += s.MeanSpeedMPS
		crawl += s.CrawlShare
	}
	return speed, crawl
}

// recoveries counts the rounds' cooperative recoveries.
func recoveries(rounds []*trace.Collector) int {
	n := 0
	for _, round := range rounds {
		n += len(round.Recovered)
	}
	return n
}
