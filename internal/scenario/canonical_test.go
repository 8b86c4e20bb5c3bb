package scenario

import (
	"testing"

	"repro/internal/analysis"
)

func TestCanonical30Rounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment in -short mode")
	}
	cfg := DefaultTestbed()
	res, err := RunRounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := analysis.Table1(res.Rounds, res.CarIDs)
	t.Logf("\n%s", analysis.FormatTable1(rows))
	for _, car := range res.CarIDs {
		lo, hi, after, joint, ok := analysis.CoopCurves(res.Rounds, car, res.CarIDs)
		if !ok {
			t.Fatalf("car%v: no reception window", car)
		}
		maxGap, meanGap := analysis.OptimalityGap(after, joint)
		t.Logf("car%v: window %d..%d maxGap=%.3f meanGap=%.3f", car, lo, hi, maxGap, meanGap)
	}
}
