package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestEstimatorMeanVariance(t *testing.T) {
	e := NewEstimator()
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		e.Add(v)
	}
	if e.Count() != 8 {
		t.Fatalf("Count = %d", e.Count())
	}
	if math.Abs(e.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", e.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if math.Abs(e.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", e.Variance())
	}
}

func TestEstimatorIntervalShrinks(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	e := NewEstimator()
	var w1, w2 float64
	for i := 0; i < 100; i++ {
		e.Add(rng.Float64())
	}
	lo, hi := e.MeanInterval(0.95)
	w1 = hi - lo
	for i := 0; i < 9900; i++ {
		e.Add(rng.Float64())
	}
	lo, hi = e.MeanInterval(0.95)
	w2 = hi - lo
	if w2 >= w1 {
		t.Fatalf("interval did not shrink: %v -> %v", w1, w2)
	}
	if lo > 0.5 || hi < 0.5 {
		t.Fatalf("interval [%v,%v] excludes true mean 0.5", lo, hi)
	}
}

func TestEstimatorCoverage(t *testing.T) {
	// ~95% of 95% confidence intervals over a known distribution should
	// cover the true mean. With 400 trials the tolerated band is generous.
	rng := rand.New(rand.NewPCG(2, 2))
	const trials, n = 400, 200
	covered := 0
	for trial := 0; trial < trials; trial++ {
		e := NewEstimator()
		for i := 0; i < n; i++ {
			e.Add(rng.NormFloat64()*3 + 10)
		}
		lo, hi := e.MeanInterval(0.95)
		if lo <= 10 && 10 <= hi {
			covered++
		}
	}
	if covered < int(0.90*trials) || covered == trials {
		t.Fatalf("coverage %d/%d outside plausible band for a 95%% interval", covered, trials)
	}
}

func TestEstimatorSum(t *testing.T) {
	e := NewEstimator()
	if _, err := e.SumEstimate(); err == nil {
		t.Fatal("SumEstimate without population should fail")
	}
	e.SetPopulation(1000)
	for i := 0; i < 100; i++ {
		e.Add(2)
	}
	sum, err := e.SumEstimate()
	if err != nil || sum != 2000 {
		t.Fatalf("SumEstimate = %v, %v", sum, err)
	}
	lo, hi, err := e.SumInterval(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 2000 || hi < 2000 {
		t.Fatalf("sum interval [%v,%v]", lo, hi)
	}
}

func TestFinitePopulationCorrection(t *testing.T) {
	// Once the whole population has been consumed the interval collapses.
	e := NewEstimator()
	e.SetPopulation(50)
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 50; i++ {
		e.Add(rng.Float64())
	}
	lo, hi := e.MeanInterval(0.95)
	if lo != hi {
		t.Fatalf("interval with n == population should be exact, got [%v,%v]", lo, hi)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NormalQuantile(0) should panic")
		}
	}()
	NormalQuantile(0)
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Critical values: P(X >= 3.841; df=1) = 0.05, P(X >= 18.307; df=10) = 0.05.
	cases := []struct {
		stat float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},
		{18.307, 10, 0.05},
		{6.635, 1, 0.01},
		{0, 5, 1},
	}
	for _, c := range cases {
		if got := ChiSquareSurvival(c.stat, c.df); math.Abs(got-c.want) > 2e-3 {
			t.Errorf("ChiSquareSurvival(%v, %d) = %v, want %v", c.stat, c.df, got, c.want)
		}
	}
}

func TestChiSquareUniformDetectsBias(t *testing.T) {
	uniform := []int64{100, 101, 99, 98, 102, 100, 97, 103}
	p, err := ChiSquareUniformPValue(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.5 {
		t.Fatalf("near-uniform counts got p=%v", p)
	}
	biased := []int64{300, 50, 100, 100, 100, 100, 100, 150}
	p, err = ChiSquareUniformPValue(biased)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Fatalf("grossly biased counts got p=%v", p)
	}
}

func TestChiSquareArgumentValidation(t *testing.T) {
	if _, err := ChiSquarePValue([]int64{1}, []float64{1}); err == nil {
		t.Fatal("single cell should be rejected")
	}
	if _, err := ChiSquarePValue([]int64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should be rejected")
	}
	if _, err := ChiSquarePValue([]int64{1, 2}, []float64{1, 0}); err == nil {
		t.Fatal("zero expected count should be rejected")
	}
	if _, err := ChiSquareUniformPValue([]int64{0, 0}); err == nil {
		t.Fatal("no observations should be rejected")
	}
}
