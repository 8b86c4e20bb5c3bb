package scenario

import (
	"testing"
	"time"

	"repro/internal/analysis"
)

// runSmallTestbed runs a reduced-round testbed for tests.
func runSmallTestbed(t *testing.T, rounds int, mutate func(*TestbedConfig)) *TestbedResult {
	t.Helper()
	cfg := DefaultTestbed()
	cfg.Rounds = rounds
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := RunRounds(cfg)
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	return res
}

func TestTestbedValidation(t *testing.T) {
	bad := DefaultTestbed()
	bad.Rounds = 0
	if _, err := RunRounds(bad); err == nil {
		t.Fatal("zero rounds accepted")
	}
	bad2 := DefaultTestbed()
	bad2.Cars = 0
	if _, err := RunRounds(bad2); err == nil {
		t.Fatal("zero cars accepted")
	}
}

func TestTestbedGeometry(t *testing.T) {
	loop := TestbedLoop()
	if loop.Length() != loopLen {
		t.Fatalf("loop length = %v, want %v", loop.Length(), loopLen)
	}
	apPos := TestbedAPPosition()
	// AP must be just off the main street (south edge).
	if apPos.Y <= 0 || apPos.Y > 20 || apPos.X != blockWidth/2 {
		t.Fatalf("AP position = %v", apPos)
	}
}

func TestTestbedRoundShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full round simulation in -short mode")
	}
	res := runSmallTestbed(t, 2, nil)
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	if len(res.CarIDs) != 3 || res.CarIDs[0] != 1 {
		t.Fatalf("car ids = %v", res.CarIDs)
	}
	if res.RoundDuration < 2*time.Minute {
		t.Fatalf("round duration = %v, suspiciously short", res.RoundDuration)
	}
	for i, round := range res.Rounds {
		c := round.Counts()
		if c.Tx == 0 || c.Rx == 0 {
			t.Fatalf("round %d: empty trace %+v", i, c)
		}
		// Every car must have received something directly.
		for _, car := range res.CarIDs {
			if len(analysis.DirectSeqs(round, car, car)) == 0 {
				t.Fatalf("round %d: car %v received nothing", i, car)
			}
		}
	}
}

func TestTestbedCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs full rounds")
	}
	res := runSmallTestbed(t, 8, nil)
	rows := analysis.Table1(res.Rounds, res.CarIDs)
	t.Logf("\n%s", analysis.FormatTable1(rows))
	for i, row := range rows {
		if row.Rounds == 0 {
			t.Fatalf("car %d: no rounds with reception", i+1)
		}
		pre := row.LostBeforePct()
		post := row.LostAfterPct()
		t.Logf("car %d: tx=%.1f pre=%.1f%% post=%.1f%% improvement=%.2f",
			i+1, row.TxByAP.Mean(), pre, post, row.Improvement())
		// Paper band: 20-30% pre-coop loss; allow a generous reproduction
		// envelope.
		if pre < 10 || pre > 45 {
			t.Errorf("car %d: pre-coop loss %.1f%% outside [10, 45]", i+1, pre)
		}
		if post >= pre {
			t.Errorf("car %d: cooperation did not reduce losses (%.1f%% -> %.1f%%)", i+1, pre, post)
		}
		if row.Improvement() < 0.3 {
			t.Errorf("car %d: improvement %.2f below 0.3", i+1, row.Improvement())
		}
	}
}
