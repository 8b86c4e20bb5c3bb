package scenario

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/trace"
)

// ChannelMetrics summarises one round at exactly the level the fast
// channel mode (radio.Config.FastMode) promises to preserve: the mode is
// validated statistically — delivery ratio and delay within confidence
// bands of exact mode — not byte-for-byte, so these are the quantities
// the equivalence gate compares.
type ChannelMetrics struct {
	// Rx and Drops count frame-level outcomes across the whole round
	// (all frame types, all stations), from the medium's counters: the
	// trace holds only the tracked stations' share.
	Rx, Drops int
	// DeliveryRatio is Rx / (Rx + Drops); zero when nothing was resolved.
	DeliveryRatio float64
	// Delivered counts the distinct DATA (flow, seq) pairs that reached
	// at least one tracked receiver.
	Delivered int
	// MeanDelayS is the mean first-delivery delay in seconds over the
	// delivered DATA pairs: first Rx at any tracked receiver minus first
	// Tx.
	MeanDelayS float64
}

// CollectChannelMetrics reduces a round to its channel-level summary:
// the frame outcomes from the medium counters it flushed, the DATA
// deliveries from its trace.
func CollectChannelMetrics(col *trace.Collector, counts mac.Stats) ChannelMetrics {
	m := ChannelMetrics{Rx: int(counts.Deliveries), Drops: int(dropped(counts))}
	if n := m.Rx + m.Drops; n > 0 {
		m.DeliveryRatio = float64(m.Rx) / float64(n)
	}
	type flowSeq struct {
		flow packet.NodeID
		seq  uint32
	}
	firstTx := make(map[flowSeq]time.Duration)
	for _, r := range col.Tx {
		if r.Type != packet.TypeData {
			continue
		}
		k := flowSeq{r.Flow, r.Seq}
		if at, ok := firstTx[k]; !ok || r.At < at {
			firstTx[k] = r.At
		}
	}
	firstRx := make(map[flowSeq]time.Duration)
	for _, r := range col.Rx {
		if r.Type != packet.TypeData {
			continue
		}
		k := flowSeq{r.Flow, r.Seq}
		if at, ok := firstRx[k]; !ok || r.At < at {
			firstRx[k] = r.At
		}
	}
	var sum float64
	for k, rx := range firstRx {
		tx, ok := firstTx[k]
		if !ok || rx < tx {
			continue
		}
		m.Delivered++
		sum += (rx - tx).Seconds()
	}
	if m.Delivered > 0 {
		m.MeanDelayS = sum / float64(m.Delivered)
	}
	return m
}

// EquivBand parameterises the statistical-equivalence gate between two
// arms of rounds (exact vs fast channel mode). Both arms are expected to
// run with common random numbers — the same per-round seeds — so the
// Welch term captures round-to-round spread and the epsilon floors keep
// the gate meaningful at small round counts where the sample variance is
// a weak estimate.
type EquivBand struct {
	// Z scales the Welch standard-error term (a z of 3 is roughly a
	// 99.7% band under normality).
	Z float64
	// RatioEps is the absolute delivery-ratio slack added to the band.
	RatioEps float64
	// DelayRelEps is the relative mean-delay slack, taken against the
	// larger of the two arm means.
	DelayRelEps float64
	// DelayAbsFloorS is the absolute delay slack floor in seconds, so
	// near-zero delays do not shrink the band to nothing.
	DelayAbsFloorS float64
}

// DefaultEquivBand is the gate used by the fast-mode validation suite.
func DefaultEquivBand() EquivBand {
	return EquivBand{Z: 3, RatioEps: 0.03, DelayRelEps: 0.10, DelayAbsFloorS: 2e-3}
}

// CompareChannelMetrics checks that the fast arm's delivery ratio and
// mean first-delivery delay sit within band of the exact arm, treating
// per-round metrics as the samples. It returns nil when equivalent and a
// descriptive error naming the metric that broke the band otherwise.
func CompareChannelMetrics(exact, fast []ChannelMetrics, band EquivBand) error {
	if len(exact) == 0 || len(fast) == 0 {
		return fmt.Errorf("statequiv: empty arm (exact %d rounds, fast %d)", len(exact), len(fast))
	}
	ratio := func(ms []ChannelMetrics) []float64 {
		out := make([]float64, len(ms))
		for i, m := range ms {
			out[i] = m.DeliveryRatio
		}
		return out
	}
	re, rf := ratio(exact), ratio(fast)
	if diff, width := welchBand(re, rf, band.Z, band.RatioEps); diff > width {
		return fmt.Errorf("statequiv: delivery ratio differs by %.4f (exact %.4f, fast %.4f), band %.4f",
			diff, mean(re), mean(rf), width)
	}
	delivered := func(ms []ChannelMetrics) (int, []float64) {
		n, out := 0, make([]float64, 0, len(ms))
		for _, m := range ms {
			n += m.Delivered
			if m.Delivered > 0 {
				out = append(out, m.MeanDelayS)
			}
		}
		return n, out
	}
	ne, de := delivered(exact)
	nf, df := delivered(fast)
	if (ne == 0) != (nf == 0) {
		return fmt.Errorf("statequiv: delivered DATA pairs exist in one arm only (exact %d, fast %d)", ne, nf)
	}
	if ne == 0 {
		return nil // nothing delivered in either arm; ratio check already ran
	}
	eps := band.DelayRelEps*math.Max(mean(de), mean(df)) + band.DelayAbsFloorS
	if diff, width := welchBand(de, df, band.Z, eps); diff > width {
		return fmt.Errorf("statequiv: mean delay differs by %.2fms (exact %.2fms, fast %.2fms), band %.2fms",
			diff*1e3, mean(de)*1e3, mean(df)*1e3, width*1e3)
	}
	return nil
}

// welchBand returns the absolute difference of the two sample means and
// the acceptance width z*SE + eps, where SE is the Welch standard error
// of the mean difference. Single-sample arms contribute zero variance,
// leaving the epsilon floor as the whole band.
func welchBand(a, b []float64, z, eps float64) (diff, width float64) {
	diff = math.Abs(mean(a) - mean(b))
	se := math.Sqrt(sampleVar(a)/float64(len(a)) + sampleVar(b)/float64(len(b)))
	return diff, z*se + eps
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sampleVar is the unbiased sample variance; zero for fewer than two
// samples.
func sampleVar(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

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
					col, counts := countedRound(t, fam, func(c *Common) { c.FastChannel = fast }, r)
					out[r] = CollectChannelMetrics(col, counts.mac)
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
