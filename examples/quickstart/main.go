// Quickstart: the smallest complete Cooperative-ARQ simulation.
//
// Two parked cars listen to a roadside AP that stops transmitting after
// ten seconds. Car 1 has a poor link and misses packets; car 2 overhears
// them. When the AP goes silent, car 1 enters the Cooperative-ARQ phase,
// requests its missing packets, and car 2 answers from its buffer.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/ap"
	"repro/internal/carq"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)

	const (
		apID packet.NodeID = 100
		car1 packet.NodeID = 1
		car2 packet.NodeID = 2
	)

	// 1. A deterministic discrete-event engine and a trace collector.
	engine := sim.New()
	collector := &trace.Collector{}

	// 2. A radio channel: log-distance path loss with mild fading. Car 1
	// is parked at the coverage edge, car 2 close to the AP.
	chCfg := radio.DefaultConfig()
	chCfg.TxPowerDBm = 8
	chCfg.ShadowSigmaDB = 0
	chCfg.FadingK = 0 // Rayleigh: plenty of per-frame variation
	channel := radio.MustChannel(chCfg)

	// 3. The shared medium and three stations.
	medium := mac.NewMedium(engine, channel, collector)
	positions := map[packet.NodeID]geom.Point{
		apID: {X: 0},
		car1: {X: 95}, // weak link
		car2: {X: 30}, // strong link, overhears car 1's packets
	}
	stations := make(map[packet.NodeID]*mac.Station)
	for _, id := range []packet.NodeID{apID, car1, car2} {
		pos := positions[id]
		st, err := medium.AddStation(id, func(time.Duration) geom.Point { return pos }, nil, mac.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		stations[id] = st
	}

	// 4. The AP transmits 10 packets/s to each car for 10 seconds.
	if _, err := ap.New(engine, stations[apID], ap.Config{
		ID: apID, Flows: []packet.NodeID{car1, car2},
		PacketsPerSecond: 10, PayloadBytes: 500, Repeats: 1,
		Stop: 10 * time.Second, Start: time.Millisecond,
	}); err != nil {
		log.Fatal(err)
	}

	// 5. A Cooperative-ARQ node on each car.
	nodes := make(map[packet.NodeID]*carq.Node)
	for _, id := range []packet.NodeID{car1, car2} {
		node, err := carq.NewNode(carq.DefaultConfig(id), carq.Deps{
			Ctx:      engine,
			Port:     stations[id],
			RNG:      sim.Stream(42, fmt.Sprintf("node-%v", id)),
			Observer: collector,
		})
		if err != nil {
			log.Fatal(err)
		}
		stations[id].SetHandler(node)
		node.Start()
		nodes[id] = node
	}

	// 6. Run: 10 s of coverage, AP timeout at 15 s, then cooperation.
	if err := engine.RunUntil(40 * time.Second); err != nil {
		log.Fatal(err)
	}

	// 7. Report.
	for _, id := range []packet.NodeID{car1, car2} {
		n := nodes[id]
		st := n.Stats()
		sent := collector.DataSentSeqs(id)
		fmt.Printf("car %v: %d of %d packets direct, %d recovered via C-ARQ, %d still missing (phase %v)\n",
			id, st.DataDirect, len(sent), st.Recovered, n.MissingCount(), n.Phase())
	}
	fmt.Printf("car 2 answered %d requests for car 1\n", nodes[car2].Stats().ResponsesSent)
}
