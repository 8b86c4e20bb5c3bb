// Multi-visit file download: the paper's future-work question.
//
// "How can the presented loss reduction reduce the number of APs that a
// vehicular node needs to visit to download a file?" Cars circle the
// urban block while the Infostation cycles a fixed file; the run reports
// how many coverage visits each car needs, with and without cooperation.
//
//	go run ./examples/multiap [-blocks 220]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	blocks := flag.Uint("blocks", 220, "file size in blocks per car")
	flag.Parse()

	for _, coop := range []bool{false, true} {
		cfg := scenario.DefaultDownload()
		cfg.FileBlocks = uint32(*blocks)
		cfg.Coop = coop
		res, err := scenario.RunRounds(cfg)
		if err != nil {
			log.Fatal(err)
		}
		mode := "without cooperation"
		if coop {
			mode = "with C-ARQ"
		}
		fmt.Printf("%s (file = %d blocks, lap = %v):\n", mode, cfg.FileBlocks, res.LapTime.Round(time.Second))
		for _, c := range res.Cars {
			status := fmt.Sprintf("finished after %d AP visits (%v)", c.Visits, c.CompletionTime.Round(time.Second))
			if !c.Completed {
				status = fmt.Sprintf("incomplete: %d/%d blocks after %d visits", c.Blocks, cfg.FileBlocks, c.Visits)
			}
			fmt.Printf("  car %v: %s\n", c.Car, status)
		}
		fmt.Println()
	}
}
