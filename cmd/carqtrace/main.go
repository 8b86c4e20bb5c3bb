// Command carqtrace analyses a JSONL event trace produced by carqsim,
// mirroring the paper's offline post-processing of monitor-mode captures:
// per-car reception statistics, loss breakdown by cause, protocol overhead
// and recovery summary.
//
// Usage:
//
//	carqtrace [-cars 1,2,3] trace.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("carqtrace: ")

	carsFlag := flag.String("cars", "1,2,3", "comma-separated car node IDs")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: carqtrace [-cars 1,2,3] trace.jsonl")
	}

	cars, err := parseCars(*carsFlag)
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	col, err := trace.ReadJSONL(f)
	if err != nil {
		log.Fatalf("parsing trace: %v", err)
	}

	counts := col.Counts()
	fmt.Printf("trace: %d tx, %d rx, %d drops, %d phase changes, %d recoveries\n\n",
		counts.Tx, counts.Rx, counts.Drops, counts.Phases, counts.Recovered)

	fmt.Println("per-car reception (own flow):")
	for _, car := range cars {
		sent := col.DataSentSeqs(car)
		direct := analysis.DirectSeqs(col, car, car)
		held := analysis.HeldSeqs(col, car)
		fmt.Printf("  car %v: %d sent, %d direct (%.1f%%), %d held after coop (%.1f%%)\n",
			car, len(sent), len(direct), pct(len(direct), len(sent)),
			len(held), pct(len(held), len(sent)))
	}

	fmt.Println("\ndrop breakdown:")
	byReason := make(map[mac.DropReason]int)
	for _, d := range col.Drops {
		byReason[d.Reason]++
	}
	for reason := mac.DropChannel; reason <= mac.DropHalfDuplex; reason++ {
		if n := byReason[reason]; n > 0 {
			fmt.Printf("  %-12s %d\n", reason, n)
		}
	}

	o := analysis.MeasureOverhead(col)
	fmt.Printf("\nprotocol overhead: hello=%d request=%d (%d B) response=%d (%d B)\n",
		o.HelloTx, o.RequestTx, o.RequestBytes, o.ResponseTx, o.ResponseBytes)

	fmt.Println("\nrecoveries by helper:")
	byHelper := make(map[packet.NodeID]int)
	for _, r := range col.Recovered {
		byHelper[r.From]++
	}
	for _, car := range cars {
		if n := byHelper[car]; n > 0 {
			fmt.Printf("  from car %v: %d packets\n", car, n)
		}
	}
}

func parseCars(s string) ([]packet.NodeID, error) {
	var out []packet.NodeID
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad car id %q: %w", part, err)
		}
		out = append(out, packet.NodeID(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no car ids in %q", s)
	}
	return out, nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
