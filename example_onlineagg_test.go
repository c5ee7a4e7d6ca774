package sampleview_test

import (
	"fmt"
	"io"
	"log"
	"math/rand/v2"

	"sampleview"
)

// Online aggregation: the paper's motivating application. The query
//
//	SELECT AVG(AMOUNT) FROM SALE WHERE DAY BETWEEN d1 AND d2
//
// is answered approximately: samples stream out of the view and a running
// estimate with a CLT confidence interval is reported, converging on the
// exact answer long before the predicate is exhausted.
func Example_onlineAggregation() {
	// SALE with seasonally varying amounts so the answer isn't trivially
	// the global mean.
	rng := rand.New(rand.NewPCG(7, 7))
	const n = 500_000
	recs := make([]sampleview.Record, n)
	var exactSum, exactN float64
	const d1, d2 = 900, 1400
	for i := range recs {
		day := rng.Int64N(3650)
		amount := 50_000 + day*20 + rng.Int64N(20_000) // drifts upward over time
		recs[i] = sampleview.Record{Key: day, Amount: amount, Seq: uint64(i)}
		if day >= d1 && day <= d2 {
			exactSum += float64(amount)
			exactN++
		}
	}
	exact := exactSum / exactN

	view, err := sampleview.CreateFromSlice("", recs, sampleview.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer view.Close()

	q := sampleview.Box1D(d1, d2)
	stream, err := view.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	est, err := view.NewEstimator(q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("online AVG(AMOUNT) for DAY in [%d,%d]; exact answer %.2f\n", d1, d2, exact)
	fmt.Printf("%-10s %-12s %-28s %s\n", "samples", "estimate", "95% interval", "covers exact?")
	next := int64(100)
	for {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		est.Add(float64(rec.Amount))
		if est.Count() == next {
			lo, hi := est.MeanInterval(0.95)
			fmt.Printf("%-10d %-12.2f [%.2f, %.2f]   %v\n",
				est.Count(), est.Mean(), lo, hi, lo <= exact && exact <= hi)
			next *= 4
		}
	}
	fmt.Printf("\nexhausted: n=%d final estimate %.2f (exact %.2f)\n",
		est.Count(), est.Mean(), exact)

	// Output:
	// online AVG(AMOUNT) for DAY in [900,1400]; exact answer 82983.86
	// samples    estimate     95% interval                 covers exact?
	// 100        83387.34     [82136.19, 84638.49]   true
	// 400        83458.74     [82824.19, 84093.29]   true
	// 1600       83048.06     [82739.61, 83356.52]   true
	// 6400       82904.94     [82754.77, 83055.11]   true
	// 25600      82886.65     [82824.24, 82949.06]   false
	//
	// exhausted: n=68936 final estimate 82983.86 (exact 82983.86)
}
