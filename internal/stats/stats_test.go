package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// stdDev is the batch sample standard deviation of xs (n-1
// denominator), the oracle the streaming Accumulator is checked against.
func stdDev(xs []float64) float64 {
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.n != 0 || a.Mean() != 0 || a.variance() != 0 {
		t.Fatal("zero accumulator not zero-valued")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.n != 8 {
		t.Fatalf("n = %d, want 8", a.n)
	}
	if got := a.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample variance with n-1 denominator: sum sq dev = 32, /7.
	if got := a.variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7)
	}
}

func TestAccumulatorSingleValue(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.variance() != 0 || a.StdDev() != 0 {
		t.Fatal("variance of single observation should be 0")
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	// Property: streaming mean/stddev equals the batch formulas.
	check := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		var a Accumulator
		for i, r := range raw {
			xs[i] = float64(r) / 7
			a.Add(xs[i])
		}
		return math.Abs(a.Mean()-Mean(xs)) < 1e-9 &&
			math.Abs(a.StdDev()-stdDev(xs)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	if p.Estimate() != 0 {
		t.Fatal("empty proportion estimate != 0")
	}
	for i := 0; i < 30; i++ {
		k := 0
		if i < 21 { // 21 of 30
			k = 1
		}
		p.AddN(k, 1)
	}
	if p.successes != 21 || p.trials != 30 {
		t.Fatalf("got %d/%d, want 21/30", p.successes, p.trials)
	}
	if got := p.Estimate(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("Estimate = %v, want 0.7", got)
	}
}

func TestProportionAddN(t *testing.T) {
	var p Proportion
	p.AddN(3, 10)
	p.AddN(2, 10)
	if p.successes != 5 || p.trials != 20 {
		t.Fatalf("got %d/%d, want 5/20", p.successes, p.trials)
	}
	if p.Estimate() != 0.25 {
		t.Fatalf("Estimate = %v, want 0.25", p.Estimate())
	}
}

func TestProportionAddNPanicsOnBadInput(t *testing.T) {
	for _, tc := range [][2]int{{-1, 5}, {3, -1}, {6, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddN(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			var p Proportion
			p.AddN(tc[0], tc[1])
		}()
	}
}

func TestMeanStdDevEdgeCases(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	var a Accumulator
	if a.StdDev() != 0 {
		t.Fatal("StdDev of no observations != 0")
	}
	a.Add(5)
	if a.StdDev() != 0 {
		t.Fatal("StdDev of one observation != 0")
	}
}

func TestAccumulatorGaussianSanity(t *testing.T) {
	// Feed a known normal distribution and check the estimates converge.
	rng := rand.New(rand.NewSource(1))
	var a Accumulator
	for i := 0; i < 100000; i++ {
		a.Add(rng.NormFloat64()*2 + 10)
	}
	if math.Abs(a.Mean()-10) > 0.05 {
		t.Fatalf("Mean = %v, want ~10", a.Mean())
	}
	if math.Abs(a.StdDev()-2) > 0.05 {
		t.Fatalf("StdDev = %v, want ~2", a.StdDev())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "test"
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i)*0.1)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	data := s.GnuplotData()
	if data == "" || data[0] != '#' {
		t.Fatalf("GnuplotData header missing: %q", data)
	}
}

func TestSeriesDiffs(t *testing.T) {
	a := &Series{X: []float64{1, 2, 3}, Y: []float64{0.5, 0.6, 0.7}}
	b := &Series{X: []float64{1, 2, 3}, Y: []float64{0.5, 0.9, 0.6}}
	if got := MaxAbsDiff(a, b); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("MaxAbsDiff = %v, want 0.3", got)
	}
	if got := MeanAbsDiff(a, b); math.Abs(got-(0.0+0.3+0.1)/3) > 1e-12 {
		t.Fatalf("MeanAbsDiff = %v", got)
	}
}

func TestSeriesDiffPanicsOnShapeMismatch(t *testing.T) {
	a := &Series{X: []float64{1}, Y: []float64{1}}
	b := &Series{}
	defer func() {
		if recover() == nil {
			t.Fatal("MaxAbsDiff on mismatched series did not panic")
		}
	}()
	MaxAbsDiff(a, b)
}

func TestAsciiChart(t *testing.T) {
	s := &Series{Name: "p", X: []float64{0, 1, 2}, Y: []float64{0, 0.5, 1}}
	out := AsciiChart(20, 5, s)
	if out == "" {
		t.Fatal("empty chart")
	}
	if AsciiChart(0, 5, s) != "" || AsciiChart(20, 5) != "" {
		t.Fatal("degenerate chart inputs should yield empty string")
	}
}
