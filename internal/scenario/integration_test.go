package scenario

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/packet"
	"repro/internal/trace"
)

// TestFullStackInvariants runs complete testbed rounds and checks the
// cross-layer conservation properties that must hold whatever the channel
// does:
//
//  1. No packet materialises from nowhere: every cooperative recovery is
//     of a sequence some car actually received off the air.
//  2. No duplicate recoveries of the same (car, seq).
//  3. Everything a car holds was transmitted by the AP on that car's flow.
//  4. The trace-level held set matches the node's final state.
func TestFullStackInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full round simulation in -short mode")
	}
	cfg := DefaultTestbed()
	cfg.Rounds = 1
	cfg.Seed = 7

	carIDs := CarIDs(cfg.Cars)
	col, _, err := TestbedRound(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, car := range carIDs {
		sentSet := make(map[uint32]bool)
		for _, seq := range col.DataSentSeqs(car) {
			sentSet[seq] = true
		}
		joint := make(map[uint32]bool) // received off the air by any car
		for _, rx := range carIDs {
			for _, seq := range analysis.DirectSeqs(col, rx, car) {
				joint[seq] = true
			}
		}

		seen := make(map[uint32]bool)
		for _, rec := range col.Recovered {
			if rec.Node != car {
				continue
			}
			if seen[rec.Seq] {
				t.Errorf("car %v: sequence %d recovered twice", car, rec.Seq)
			}
			seen[rec.Seq] = true
			if !sentSet[rec.Seq] {
				t.Errorf("car %v: recovered seq %d that the AP never sent", car, rec.Seq)
			}
			if !joint[rec.Seq] {
				t.Errorf("car %v: recovered seq %d that no car received off the air", car, rec.Seq)
			}
			if rec.From == car {
				t.Errorf("car %v: recovered seq %d from itself", car, rec.Seq)
			}
		}

		for _, seq := range analysis.HeldSeqs(col, car) {
			if !sentSet[seq] {
				t.Errorf("car %v: holds seq %d never sent on its flow", car, seq)
			}
		}
	}
}

func TestTestbedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full round simulation in -short mode")
	}
	run := func() trace.Counts {
		cfg := DefaultTestbed()
		cfg.Rounds = 1
		cfg.Seed = 99
		res, err := RunRounds(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds[0].Counts()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different traces: %+v vs %+v", a, b)
	}
	cfg := DefaultTestbed()
	cfg.Rounds = 1
	cfg.Seed = 100
	res, err := RunRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].Counts() == a {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestNoCoopBaselineProducesNoControlTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("full round simulation in -short mode")
	}
	cfg := DefaultTestbed()
	cfg.Rounds = 1
	cfg.Coop = false
	res, err := RunRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Rounds[0].Tx {
		if rec.Type != packet.TypeData {
			t.Fatalf("no-coop round contains %v traffic", rec.Type)
		}
	}
	if n := len(res.Rounds[0].Recovered); n != 0 {
		t.Fatalf("no-coop round has %d recoveries", n)
	}
}
