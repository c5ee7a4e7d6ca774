package stats

import (
	"fmt"
	"math"
)

// ChiSquarePValue returns the p-value of a chi-square goodness-of-fit test
// of observed cell counts against the given expected counts. Expected
// counts must be positive. The test has len(observed)-1 degrees of freedom.
func ChiSquarePValue(observed []int64, expected []float64) (float64, error) {
	if len(observed) != len(expected) {
		return 0, fmt.Errorf("stats: %d observed cells but %d expected", len(observed), len(expected))
	}
	if len(observed) < 2 {
		return 0, fmt.Errorf("stats: chi-square needs at least 2 cells")
	}
	var stat float64
	for i, o := range observed {
		if expected[i] <= 0 {
			return 0, fmt.Errorf("stats: expected count for cell %d is %v, must be positive", i, expected[i])
		}
		d := float64(o) - expected[i]
		stat += d * d / expected[i]
	}
	return ChiSquareSurvival(stat, len(observed)-1), nil
}

// ChiSquareUniformPValue tests observed counts against a uniform
// distribution over the cells.
func ChiSquareUniformPValue(observed []int64) (float64, error) {
	var total int64
	for _, o := range observed {
		total += o
	}
	if total == 0 {
		return 0, fmt.Errorf("stats: no observations")
	}
	expected := make([]float64, len(observed))
	for i := range expected {
		expected[i] = float64(total) / float64(len(observed))
	}
	return ChiSquarePValue(observed, expected)
}

// ChiSquareSurvival returns P(X >= stat) for a chi-square distribution with
// df degrees of freedom.
func ChiSquareSurvival(stat float64, df int) float64 {
	if stat <= 0 {
		return 1
	}
	return gammaQ(float64(df)/2, stat/2)
}

// gammaQ returns the regularized upper incomplete gamma function Q(a, x),
// following the series/continued-fraction split of Numerical Recipes.
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a, x) by its series representation (x < a+1).
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-14 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQContinuedFraction evaluates Q(a, x) by its continued fraction
// (x >= a+1), using the modified Lentz method.
func gammaQContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
