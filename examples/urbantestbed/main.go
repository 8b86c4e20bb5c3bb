// Urban testbed: the paper's experiment, end to end.
//
// Reproduces the ICDCS 2008 evaluation — a three-car platoon circling an
// urban block past one access point for 30 rounds — and prints Table 1
// and the six figures' summaries.
//
//	go run ./examples/urbantestbed [-rounds 30] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/report"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	rounds := flag.Int("rounds", 30, "experiment rounds")
	seed := flag.Int64("seed", 1, "root random seed")
	flag.Parse()

	cfg := scenario.DefaultTestbed()
	cfg.Rounds = *rounds
	cfg.Seed = *seed

	fmt.Printf("running the urban testbed: %d rounds, %d cars at %.1f m/s...\n\n",
		cfg.Rounds, cfg.Cars, cfg.SpeedMPS)
	res, err := scenario.RunRounds(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report.Table1(res))

	fmt.Println("\n--- Figures 3-5: probability of reception per packet number ---")
	for _, flow := range res.CarIDs {
		fig, err := report.NewReceptionFigure(res.Rounds, res.CarIDs, flow)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(fig)
	}

	fmt.Println("\n--- Figures 6-8: C-ARQ vs the joint-reception oracle ---")
	for _, car := range res.CarIDs {
		fig, err := report.NewCoopFigure(res.Rounds, res.CarIDs, car)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(fig)
	}
}
