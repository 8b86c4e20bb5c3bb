package scenario

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/packet"
)

// tinyTwoWay shrinks the scenario enough for fast tests while keeping
// the structure: outbound pass, U-turn, head-on relay encounters.
func tinyTwoWay() TwoWayConfig {
	cfg := DefaultTwoWay()
	cfg.Rounds = 1
	cfg.RelayCars = 2
	cfg.RoadLengthM = 1600
	cfg.CycleBlocks = 200
	return cfg
}

func TestTwoWayConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*TwoWayConfig){
		"rounds":      func(c *TwoWayConfig) { c.Rounds = 0 },
		"cars":        func(c *TwoWayConfig) { c.Cars = 0 },
		"relays":      func(c *TwoWayConfig) { c.RelayCars = -1 },
		"speed":       func(c *TwoWayConfig) { c.SpeedMPS = 0 },
		"relay-speed": func(c *TwoWayConfig) { c.RelaySpeedMPS = -1 },
		"road":        func(c *TwoWayConfig) { c.RoadLengthM = 0 },
	} {
		cfg := DefaultTwoWay()
		mutate(&cfg)
		if _, err := cfg.Normalized(); err == nil {
			t.Errorf("%s: bad config accepted", name)
		}
	}
	if _, err := DefaultTwoWay().Normalized(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestTwoWayRoundDeterminism(t *testing.T) {
	cfg := tinyTwoWay()
	a := runRound(t, cfg, 0).Protocol
	b := runRound(t, cfg, 0).Protocol
	if !reflect.DeepEqual(a.Counts(), b.Counts()) {
		t.Fatalf("same round diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
	c := runRound(t, cfg, 1).Protocol
	if reflect.DeepEqual(a.Counts(), c.Counts()) {
		t.Fatal("distinct rounds produced identical traces")
	}
}

// TestTwoWayRelaysServe checks the scenario's point: opposing-traffic
// relay cars that crossed AP coverage after the platoon recover packets
// for it on the return leg.
func TestTwoWayRelaysServe(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round simulation in -short mode")
	}
	cfg := DefaultTwoWay()
	cfg.Rounds = 2
	res, err := RunRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	if len(res.RelayIDs) != cfg.RelayCars {
		t.Fatalf("relay ids = %v", res.RelayIDs)
	}

	relay := make(map[packet.NodeID]bool)
	for _, id := range res.RelayIDs {
		relay[id] = true
	}
	fromRelay := 0
	for _, round := range res.Rounds {
		for _, rec := range round.Recovered {
			if relay[rec.From] {
				fromRelay++
			}
		}
	}
	if fromRelay == 0 {
		t.Fatal("no recoveries served by opposing-traffic relays")
	}

	// Relay service must beat the platoon-only baseline on residual loss.
	base := cfg
	base.RelayCars = 0
	baseRes, err := RunRounds(base)
	if err != nil {
		t.Fatal(err)
	}
	withRelays := meanLostAfter(t, res)
	platoonOnly := meanLostAfter(t, baseRes)
	if withRelays >= platoonOnly {
		t.Fatalf("relays did not help: post-coop loss %.1f%% with relays vs %.1f%% without", withRelays, platoonOnly)
	}
}

func meanLostAfter(t *testing.T, res *TwoWayResult) float64 {
	t.Helper()
	rows := analysis.Table1(res.Rounds, res.CarIDs)
	var post float64
	for _, row := range rows {
		post += row.LostAfterPct()
	}
	return post / float64(len(rows))
}
