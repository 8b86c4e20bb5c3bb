// Multi-Infostation corridor: the paper's Figure 1 system picture.
//
// Two roadside Infostations 700 m apart broadcast a synchronised packet
// carousel. A three-car platoon drives past both; in the dark gap between
// the stations, Cooperative ARQ fills each car's holes in the stream with
// packets its neighbours caught. The run reports each car's coverage
// efficiency — the fraction of the receivable stream it ends up holding.
//
//	go run ./examples/corridor [-aps 3] [-spacing 700]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	aps := flag.Int("aps", 2, "number of Infostations")
	spacing := flag.Float64("spacing", 700, "distance between Infostations, metres")
	rounds := flag.Int("rounds", 5, "experiment rounds")
	flag.Parse()

	for _, coop := range []bool{false, true} {
		cfg := scenario.DefaultCorridor()
		cfg.APCount = *aps
		cfg.APSpacingM = *spacing
		cfg.Rounds = *rounds
		cfg.Coop = coop
		res, err := scenario.RunRounds(cfg)
		if err != nil {
			log.Fatal(err)
		}
		mode := "without cooperation"
		if coop {
			mode = "with C-ARQ"
		}
		fmt.Printf("%s (%d Infostations, %.0f m apart, %.0f m road):\n",
			mode, cfg.APCount, cfg.APSpacingM, res.RoadLengthM)
		for _, car := range res.CarIDs {
			eff := analysis.CoverageEfficiency(res.Rounds, car, res.CarIDs)
			fmt.Printf("  car %v holds %.1f%% of the receivable stream\n", car, 100*eff)
		}
		fmt.Println()
	}
}
