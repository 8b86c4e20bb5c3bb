// Package stats provides the statistics primitives used by the experiment
// analysis layer: streaming moment accumulators, binomial proportion
// estimates with confidence intervals, and simple series utilities.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes mean and variance online using Welford's algorithm,
// which is numerically stable for long streams. The zero value is ready to
// use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (n-1 denominator), or 0
// with fewer than two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation, or 0 with no observations.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 with no observations.
func (a *Accumulator) Max() float64 { return a.max }

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

// Add records one trial with the given outcome.
func (p *Proportion) Add(success bool) {
	p.trials++
	if success {
		p.successes++
	}
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

// StdDev returns the sample standard deviation of xs (n-1 denominator), or
// 0 for fewer than two values.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Percentile returns the q-th percentile (q in [0,100]) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
// The input is not modified.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 100 {
		q = 100
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }
