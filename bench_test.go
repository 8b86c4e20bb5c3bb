// Package repro's top-level benchmark harness regenerates every table and
// figure of the paper (see DESIGN.md's experiment index) and reports the
// headline quantities as custom benchmark metrics, so a single
//
//	go test -bench=. -benchmem
//
// run reproduces the evaluation end to end. The canonical testbed result
// is computed once and shared by the table/figure benchmarks (they
// measure the regeneration pipeline); the simulation cost itself is
// measured by BenchmarkTestbedRound.
package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/carq"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// benchRounds keeps benchmark iterations affordable while leaving enough
// rounds for stable statistics; cmd/experiments runs the full 30.
const benchRounds = 8

var (
	canonicalOnce sync.Once
	canonicalRes  *scenario.TestbedResult
	canonicalErr  error
)

func canonical(b *testing.B) *scenario.TestbedResult {
	b.Helper()
	canonicalOnce.Do(func() {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = benchRounds
		canonicalRes, canonicalErr = scenario.RunRounds(cfg)
	})
	if canonicalErr != nil {
		b.Fatal(canonicalErr)
	}
	return canonicalRes
}

// BenchmarkTable1 regenerates the paper's Table 1 (per-car packets sent by
// the AP, lost before cooperation, lost after cooperation).
func BenchmarkTable1(b *testing.B) {
	res := canonical(b)
	b.ReportAllocs()
	b.ResetTimer()
	var rows []*analysis.Table1Row
	for i := 0; i < b.N; i++ {
		rows = analysis.Table1(res.Rounds, res.CarIDs)
	}
	b.StopTimer()
	for i, r := range rows {
		b.ReportMetric(r.LostBeforePct(), fmt.Sprintf("car%d_pre_%%", i+1))
		b.ReportMetric(r.LostAfterPct(), fmt.Sprintf("car%d_post_%%", i+1))
	}
}

// BenchmarkTestbedRound measures one full simulated round of the urban
// testbed (mobility + radio + MAC + protocol + tracing).
func BenchmarkTestbedRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := scenario.DefaultTestbed()
		cfg.Rounds = 1
		cfg.Seed = int64(i + 1)
		if _, err := scenario.RunRounds(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReceptionFigure regenerates one of Figures 3-5.
func benchReceptionFigure(b *testing.B, flow packet.NodeID) {
	res := canonical(b)
	b.ReportAllocs()
	b.ResetTimer()
	var fig *report.ReceptionFigure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = report.NewReceptionFigure(res.Rounds, res.CarIDs, flow)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for i, m := range fig.Regions.Means {
		b.ReportMetric(m[0], fmt.Sprintf("car%d_regI", i+1))
		b.ReportMetric(m[2], fmt.Sprintf("car%d_regIII", i+1))
	}
}

// BenchmarkFig3 regenerates Figure 3 (reception of car 1's flow).
func BenchmarkFig3(b *testing.B) { benchReceptionFigure(b, 1) }

// BenchmarkFig4 regenerates Figure 4 (reception of car 2's flow).
func BenchmarkFig4(b *testing.B) { benchReceptionFigure(b, 2) }

// BenchmarkFig5 regenerates Figure 5 (reception of car 3's flow).
func BenchmarkFig5(b *testing.B) { benchReceptionFigure(b, 3) }

// benchCoopFigure regenerates one of Figures 6-8.
func benchCoopFigure(b *testing.B, car packet.NodeID) {
	res := canonical(b)
	b.ReportAllocs()
	b.ResetTimer()
	var fig *report.CoopFigure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = report.NewCoopFigure(res.Rounds, res.CarIDs, car)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(fig.MeanGap, "mean_gap")
	b.ReportMetric(fig.MaxGap, "max_gap")
}

// BenchmarkFig6 regenerates Figure 6 (car 1 after C-ARQ vs joint).
func BenchmarkFig6(b *testing.B) { benchCoopFigure(b, 1) }

// BenchmarkFig7 regenerates Figure 7 (car 2 after C-ARQ vs joint).
func BenchmarkFig7(b *testing.B) { benchCoopFigure(b, 2) }

// BenchmarkFig8 regenerates Figure 8 (car 3 after C-ARQ vs joint).
func BenchmarkFig8(b *testing.B) { benchCoopFigure(b, 3) }

// BenchmarkAblationBatchedRequest compares per-packet REQUESTs with the
// batched optimisation (A1).
func BenchmarkAblationBatchedRequest(b *testing.B) {
	for _, batch := range []bool{false, true} {
		name := "per-packet"
		if batch {
			name = "batched"
		}
		b.Run(name, func(b *testing.B) {
			var requests, responses int
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultTestbed()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.BatchRequests = batch
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				o := report.OverheadSummary(res.Rounds)
				requests, responses = o.RequestTx, o.ResponseTx
			}
			b.ReportMetric(float64(requests), "requests")
			b.ReportMetric(float64(responses), "responses")
		})
	}
}

// BenchmarkAblationCooperatorSelection compares selection policies (A2).
func BenchmarkAblationCooperatorSelection(b *testing.B) {
	for _, tc := range []struct {
		name string
		sel  carq.Selection
	}{
		{"all", carq.SelectAll{}},
		{"best1", carq.SelectBestK{K: 1}},
		{"best2", carq.SelectBestK{K: 2}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var post float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultTestbed()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.Selection = tc.sel
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				post = meanPost(res)
			}
			b.ReportMetric(post, "post_%")
		})
	}
}

// BenchmarkAblationAPRetransmit compares AP-side retransmissions with pure
// C-ARQ (A3).
func BenchmarkAblationAPRetransmit(b *testing.B) {
	for _, tc := range []struct {
		name    string
		repeats int
		coop    bool
	}{
		{"nocoop-1x", 1, false},
		{"nocoop-2x", 2, false},
		{"carq-1x", 1, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var heldPct float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultTestbed()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.APRepeats = tc.repeats
				cfg.Coop = tc.coop
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var held, offered float64
				for _, round := range res.Rounds {
					for _, car := range res.CarIDs {
						held += float64(len(round.HeldSet(car)))
						offered += float64(len(round.DataSentSeqs(car)))
					}
				}
				heldPct = 100 * held / offered
			}
			b.ReportMetric(heldPct, "held_%")
		})
	}
}

// BenchmarkExtPlatoonSize sweeps platoon size (A4).
func BenchmarkExtPlatoonSize(b *testing.B) {
	for _, cars := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("%dcars", cars), func(b *testing.B) {
			var post float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultTestbed()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.Cars = cars
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				post = meanPost(res)
			}
			b.ReportMetric(post, "post_%")
		})
	}
}

// BenchmarkExtFileDownload measures AP visits to complete a download (A5).
func BenchmarkExtFileDownload(b *testing.B) {
	for _, coop := range []bool{false, true} {
		name := "nocoop"
		if coop {
			name = "carq"
		}
		b.Run(name, func(b *testing.B) {
			var visits float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultDownload()
				cfg.Seed = int64(i + 1)
				cfg.Coop = coop
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, c := range res.Cars {
					total += c.Visits
				}
				visits = float64(total) / float64(len(res.Cars))
			}
			b.ReportMetric(visits, "visits/car")
		})
	}
}

// BenchmarkExtBitrate sweeps the AP bit rate (A6).
func BenchmarkExtBitrate(b *testing.B) {
	for _, mod := range radio.Modulations() {
		b.Run(mod.Name, func(b *testing.B) {
			var pre, post float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultTestbed()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.Modulation = mod
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				pre, post = meanPre(res), meanPost(res)
			}
			b.ReportMetric(pre, "pre_%")
			b.ReportMetric(post, "post_%")
		})
	}
}

// BenchmarkExtEpidemic compares C-ARQ against epidemic flooding (A7).
func BenchmarkExtEpidemic(b *testing.B) {
	epidemicFactory := func(id packet.NodeID, engine *sim.Engine, port *mac.Station, seed int64, obs carq.Observer) (scenario.Node, error) {
		return baseline.NewEpidemicNode(
			baseline.DefaultEpidemicConfig(id), engine, port,
			sim.Stream(seed, fmt.Sprintf("epidemic-%v", id)), obs)
	}
	for _, tc := range []struct {
		name    string
		factory scenario.NodeFactory
	}{
		{"carq", nil},
		{"epidemic", epidemicFactory},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var post, controlTx float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultTestbed()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.Factory = tc.factory
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				post = meanPost(res)
				o := report.OverheadSummary(res.Rounds)
				controlTx = float64(o.RequestTx + o.ResponseTx)
			}
			b.ReportMetric(post, "post_%")
			b.ReportMetric(controlTx, "recovery_tx")
		})
	}
}

// BenchmarkExtHighwaySpeed sweeps drive-thru speed (A8).
func BenchmarkExtHighwaySpeed(b *testing.B) {
	for _, kmh := range []float64{30, 90, 120} {
		b.Run(fmt.Sprintf("%.0fkmh", kmh), func(b *testing.B) {
			var window, pre, post float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultHighway()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.SpeedMPS = kmh / 3.6
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rows := analysis.Table1(res.Rounds, res.CarIDs)
				window, pre, post = 0, 0, 0
				for _, r := range rows {
					window += r.TxByAP.Mean()
					pre += r.LostBeforePct()
					post += r.LostAfterPct()
				}
				n := float64(len(rows))
				window, pre, post = window/n, pre/n, post/n
			}
			b.ReportMetric(window, "window_pkts")
			b.ReportMetric(pre, "pre_%")
			b.ReportMetric(post, "post_%")
		})
	}
}

// BenchmarkExtFrameCombining evaluates C-ARQ/FC (A9).
func BenchmarkExtFrameCombining(b *testing.B) {
	for _, tc := range []struct {
		name string
		fc   bool
	}{
		{"2x-nofc", false},
		{"2x-fc", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var post float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultTestbed()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.APRepeats = 2
				cfg.FrameCombining = tc.fc
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				post = meanPost(res)
			}
			b.ReportMetric(post, "post_%")
		})
	}
}

// BenchmarkExtAdaptiveRepeats evaluates the cooperator-adaptive AP
// retransmission policy (A10).
func BenchmarkExtAdaptiveRepeats(b *testing.B) {
	for _, tc := range []struct {
		name     string
		cars     int
		adaptive int
	}{
		{"lone-static", 1, 0},
		{"lone-adaptive", 1, 3},
		{"platoon-adaptive", 3, 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var post float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultTestbed()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.Cars = tc.cars
				cfg.AdaptiveAPRepeats = tc.adaptive
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				post = meanPost(res)
			}
			b.ReportMetric(post, "post_%")
		})
	}
}

// BenchmarkExtCorridor evaluates the multi-Infostation deployment (A11).
func BenchmarkExtCorridor(b *testing.B) {
	for _, coop := range []bool{false, true} {
		name := "nocoop"
		if coop {
			name = "carq"
		}
		b.Run(name, func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultCorridor()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.Coop = coop
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for _, car := range res.CarIDs {
					sum += analysis.CoverageEfficiency(res.Rounds, car, res.CarIDs)
				}
				eff = sum / float64(len(res.CarIDs))
			}
			b.ReportMetric(eff, "coverage_eff")
		})
	}
}

// BenchmarkAblationRecruitmentTTL sweeps the cooperator staleness timeout
// (A12): short TTLs let shadowing fades evict recruitments and open the
// tail car's optimality gap.
func BenchmarkAblationRecruitmentTTL(b *testing.B) {
	for _, ttl := range []time.Duration{3 * time.Second, 8 * time.Second} {
		ttl := ttl
		b.Run(ttl.String(), func(b *testing.B) {
			var gap float64
			for i := 0; i < b.N; i++ {
				cfg := scenario.DefaultTestbed()
				cfg.Rounds = 2
				cfg.Seed = int64(i + 1)
				cfg.CandidateTTL = ttl
				res, err := scenario.RunRounds(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lo, hi, ok := analysis.Window(res.Rounds, 3, res.CarIDs)
				if !ok {
					b.Fatal("no window")
				}
				after := analysis.AfterCoopSeries(res.Rounds, 3, lo, hi)
				joint := analysis.JointSeries(res.Rounds, 3, res.CarIDs, lo, hi)
				_, gap = analysis.OptimalityGap(after, joint)
			}
			b.ReportMetric(gap, "car3_mean_gap")
		})
	}
}

// benchGridPopulation spreads n vehicles deterministically over a grid
// network: round-robin across links, five arc slots per lane.
func benchGridPopulation(g *traffic.GridNet, n int) []traffic.VehicleSpec {
	specs := make([]traffic.VehicleSpec, 0, n)
	links := len(g.Links)
	for i := 0; i < n; i++ {
		linkID := traffic.LinkID(i % links)
		slot := i / links
		lane := slot % 2
		arc := 12 + float64((slot/2)%5)*28
		l := g.Links[linkID]
		if arc >= l.Length()-6 {
			arc = l.Length() - 6
		}
		specs = append(specs, traffic.VehicleSpec{
			Driver: traffic.DefaultDriver(),
			Link:   linkID,
			Lane:   lane % l.Lanes,
			ArcM:   arc,
		})
	}
	return specs
}

// BenchmarkTrafficGrid measures the closed-loop traffic subsystem alone:
// a signalized 5x5 urban grid stepped for 10 simulated minutes with 500
// vehicles and trajectory recording on. The acceptance bar is < 10 s per
// run; -short drops to 150 vehicles over 2 minutes for CI smoke.
func BenchmarkTrafficGrid(b *testing.B) {
	vehicles, duration := 500, 10*time.Minute
	if testing.Short() {
		vehicles, duration = 150, 2*time.Minute
	}
	spec := traffic.GridSpec{
		Rows: 5, Cols: 5,
		BlockM:        150,
		Lanes:         2,
		LaneWidthM:    3.2,
		SpeedLimitMPS: 14,
		Green:         24 * time.Second,
		AllRed:        4 * time.Second,
	}
	b.ReportAllocs()
	var samples, meanSpeed float64
	for i := 0; i < b.N; i++ {
		g, err := traffic.NewGridNetwork(spec)
		if err != nil {
			b.Fatal(err)
		}
		s, err := traffic.New(traffic.Config{
			Network: g.Network, Seed: int64(i + 1),
		}, benchGridPopulation(g, vehicles))
		if err != nil {
			b.Fatal(err)
		}
		s.RunTo(duration)
		samples = float64(s.World().Summary().Samples)
		meanSpeed = s.MeanSpeedMPS()
	}
	b.ReportMetric(samples, "samples")
	b.ReportMetric(meanSpeed, "mean_mps")
}

// BenchmarkTrafficGridRound measures one full urban-grid protocol round
// (traffic replay + radio + MAC + C-ARQ + tracing) at the study
// configuration (A15).
func BenchmarkTrafficGridRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := scenario.DefaultTrafficGrid()
		cfg.Rounds = 1
		cfg.Seed = int64(i + 1)
		if _, err := scenario.RunRounds(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCityDemand measures one full demand-driven city protocol
// round (A18): OD Poisson injection, shortest-path routing, actuated
// signals, every vehicle a beaconing station. -short shrinks the grid
// and horizon for the CI bench job, where benchjson -compare gates its
// ns/op and allocs/op trajectory.
func BenchmarkCityDemand(b *testing.B) {
	cfg := scenario.DefaultCityDemand()
	if testing.Short() {
		cfg.GridRows, cfg.GridCols = 8, 8
		cfg.Cars = 6
		cfg.DemandScale = 2
		cfg.Duration = 30 * time.Second
	}
	b.ReportAllocs()
	var vehicles float64
	for i := 0; i < b.N; i++ {
		run := cfg
		run.Rounds = 1
		run.Seed = int64(i + 1)
		_, _, n, err := scenario.CityDemandRound(run, 0)
		if err != nil {
			b.Fatal(err)
		}
		vehicles = float64(n)
	}
	b.ReportMetric(vehicles, "demand_veh")
}

// BenchmarkStopGoRound measures one full congested-highway protocol
// round (A16), including the stop-and-go wave.
func BenchmarkStopGoRound(b *testing.B) {
	b.ReportAllocs()
	var crawl float64
	for i := 0; i < b.N; i++ {
		cfg := scenario.DefaultStopGo()
		cfg.Rounds = 1
		cfg.Seed = int64(i + 1)
		res, err := scenario.RunRounds(cfg)
		if err != nil {
			b.Fatal(err)
		}
		crawl = res.Traffic[0].CrawlShare
	}
	b.ReportMetric(100*crawl, "crawl_%")
}

func meanPre(res *scenario.TestbedResult) float64 {
	rows := analysis.Table1(res.Rounds, res.CarIDs)
	var sum float64
	for _, r := range rows {
		sum += r.LostBeforePct()
	}
	return sum / float64(len(rows))
}

func meanPost(res *scenario.TestbedResult) float64 {
	rows := analysis.Table1(res.Rounds, res.CarIDs)
	var sum float64
	for _, r := range rows {
		sum += r.LostAfterPct()
	}
	return sum / float64(len(rows))
}
