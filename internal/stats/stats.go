// Package stats provides the statistics primitives used by the experiment
// analysis layer: streaming moment accumulators, binomial proportion
// estimates, and simple series utilities.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes mean and variance online using Welford's algorithm,
// which is numerically stable for long streams. The zero value is ready to
// use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the sample mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// variance returns the unbiased sample variance (n-1 denominator), or 0
// with fewer than two observations.
func (a *Accumulator) variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.variance()) }

// String implements fmt.Stringer for quick logging.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f", a.n, a.Mean(), a.StdDev())
}

// Proportion is a streaming Bernoulli estimator: a count of successes out
// of trials. The zero value is ready to use.
type Proportion struct {
	successes int
	trials    int
}

// AddN records n trials with k successes.
func (p *Proportion) AddN(k, n int) {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("stats: AddN(%d, %d) out of range", k, n))
	}
	p.successes += k
	p.trials += n
}

// Estimate returns the maximum-likelihood estimate k/n, or 0 with no
// trials.
func (p *Proportion) Estimate() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
