// Package stats provides the statistical machinery that surrounds a sample
// view: online-aggregation estimators with confidence intervals (the paper's
// motivating application), and the goodness-of-fit tests the test suite uses
// to verify that samplers really produce uniform random samples.
package stats

import (
	"fmt"
	"math"
)

// Estimator consumes an online random sample one value at a time and
// maintains running estimates in the style of Hellerstein et al.'s online
// aggregation. It uses Welford's numerically stable recurrences for the mean
// and variance.
//
// If the size of the population being sampled is known (the ACE Tree's
// internal-node counts provide it, as the paper notes), SetPopulation
// enables SUM/COUNT estimates and finite-population-corrected intervals.
type Estimator struct {
	n          int64
	mean, m2   float64
	population int64 // 0 when unknown
}

// NewEstimator returns an estimator over an unknown population size.
func NewEstimator() *Estimator { return &Estimator{} }

// SetPopulation declares the number of records in the population the sample
// is drawn from.
func (e *Estimator) SetPopulation(n int64) { e.population = n }

// Add consumes one sampled value.
func (e *Estimator) Add(x float64) {
	e.n++
	d := x - e.mean
	e.mean += d / float64(e.n)
	e.m2 += d * (x - e.mean)
}

// Count returns the number of samples consumed.
func (e *Estimator) Count() int64 { return e.n }

// Mean returns the sample mean, the estimate of AVG over the predicate.
func (e *Estimator) Mean() float64 { return e.mean }

// Variance returns the unbiased sample variance.
func (e *Estimator) Variance() float64 {
	if e.n < 2 {
		return 0
	}
	return e.m2 / float64(e.n-1)
}

// StdDev returns the sample standard deviation.
func (e *Estimator) StdDev() float64 { return math.Sqrt(e.Variance()) }

// fpc returns the finite population correction factor for the current
// sample size, or 1 when the population is unknown.
func (e *Estimator) fpc() float64 {
	if e.population <= 1 || e.n >= e.population {
		if e.population > 0 && e.n >= e.population {
			return 0 // whole population seen: no sampling error left
		}
		return 1
	}
	return math.Sqrt(float64(e.population-e.n) / float64(e.population-1))
}

// MeanInterval returns a CLT-based confidence interval for the population
// mean at the given confidence level (e.g. 0.95). The half-width is zero
// until two samples have been seen.
func (e *Estimator) MeanInterval(confidence float64) (lo, hi float64) {
	if e.n < 2 {
		return e.mean, e.mean
	}
	z := NormalQuantile(0.5 + confidence/2)
	half := z * e.StdDev() / math.Sqrt(float64(e.n)) * e.fpc()
	return e.mean - half, e.mean + half
}

// SumEstimate scales the mean by the population size. It returns an error
// if the population size has not been provided.
func (e *Estimator) SumEstimate() (float64, error) {
	if e.population == 0 {
		return 0, fmt.Errorf("stats: population size unknown; call SetPopulation")
	}
	return e.mean * float64(e.population), nil
}

// SumInterval returns a confidence interval for the population SUM.
func (e *Estimator) SumInterval(confidence float64) (lo, hi float64, err error) {
	if e.population == 0 {
		return 0, 0, fmt.Errorf("stats: population size unknown; call SetPopulation")
	}
	ml, mh := e.MeanInterval(confidence)
	return ml * float64(e.population), mh * float64(e.population), nil
}

// NormalQuantile returns the p-quantile of the standard normal
// distribution. It panics if p is outside (0,1), which indicates a
// programming error in confidence-level handling.
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v out of (0,1)", p))
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}
