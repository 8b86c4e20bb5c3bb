package scenario

import "testing"

// TestFastChannelStatisticalEquivalence is the fast channel mode's
// validation gate: across every scenario family, runs with
// FastChannel=true must reproduce the exact-mode delivery ratio and mean
// first-delivery delay within the confidence band of DefaultEquivBand.
// Both arms use common random numbers — identical per-round seeds — so
// the only difference between them is the approximation itself
// (quantised PER tables, coarsened shadowing, polynomial log10).
func TestFastChannelStatisticalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation rounds in -short mode")
	}

	const rounds = 3
	band := DefaultEquivBand()
	for _, fam := range families() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			arm := func(fast bool) []ChannelMetrics {
				out := make([]ChannelMetrics, rounds)
				for r := 0; r < rounds; r++ {
					out[r] = CollectChannelMetrics(fam.run(t, func(c *Common) { c.FastChannel = fast }, r))
				}
				return out
			}
			exact, fastArm := arm(false), arm(true)
			for _, m := range exact {
				if m.Rx+m.Drops == 0 {
					t.Fatalf("exact round resolved no frames — the gate would be vacuous")
				}
			}
			if err := CompareChannelMetrics(exact, fastArm, band); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCompareChannelMetricsRejects pins the gate itself: a gross
// delivery-ratio or delay shift must fail, identical arms must pass.
func TestCompareChannelMetricsRejects(t *testing.T) {
	band := DefaultEquivBand()
	base := []ChannelMetrics{
		{Rx: 90, Drops: 10, DeliveryRatio: 0.90, Delivered: 50, MeanDelayS: 0.010},
		{Rx: 88, Drops: 12, DeliveryRatio: 0.88, Delivered: 48, MeanDelayS: 0.011},
		{Rx: 91, Drops: 9, DeliveryRatio: 0.91, Delivered: 51, MeanDelayS: 0.010},
	}
	if err := CompareChannelMetrics(base, base, band); err != nil {
		t.Errorf("identical arms rejected: %v", err)
	}
	shifted := append([]ChannelMetrics(nil), base...)
	for i := range shifted {
		shifted[i].DeliveryRatio -= 0.2
	}
	if CompareChannelMetrics(base, shifted, band) == nil {
		t.Error("20-point delivery-ratio shift accepted")
	}
	slow := append([]ChannelMetrics(nil), base...)
	for i := range slow {
		slow[i].MeanDelayS *= 3
	}
	if CompareChannelMetrics(base, slow, band) == nil {
		t.Error("3x delay shift accepted")
	}
	lost := append([]ChannelMetrics(nil), base...)
	for i := range lost {
		lost[i].Delivered = 0
	}
	if CompareChannelMetrics(base, lost, band) == nil {
		t.Error("one arm delivering nothing accepted")
	}
}
