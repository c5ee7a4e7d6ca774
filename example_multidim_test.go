package sampleview_test

import (
	"fmt"
	"io"
	"log"
	"math/rand/v2"

	"sampleview"
)

// Multi-dimensional sample views (paper Section VII): a k-d ACE Tree over
// (DAY, AMOUNT) answers sampling queries with predicates on both
// attributes, e.g. "sample the sales of week 30-40 with amounts between
// $100 and $500", and supports online aggregation over the box.
func Example_multidim() {
	rng := rand.New(rand.NewPCG(23, 23))
	const n = 300_000
	recs := make([]sampleview.Record, n)
	for i := range recs {
		recs[i] = sampleview.Record{
			Key:    rng.Int64N(3650),
			Amount: rng.Int64N(200_000),
			Seq:    uint64(i),
		}
	}

	// A two-dimensional view: INDEX ON (DAY, AMOUNT).
	view, err := sampleview.CreateFromSlice("", recs, sampleview.Options{Dims: 2, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	defer view.Close()
	fmt.Printf("2-d sample view: %d records, height %d\n\n", view.Count(), view.Height())

	// Sample sales from days 180-360 with amounts 10000-100000.
	q := sampleview.Box2D(180, 360, 10_000, 100_000)
	stream, err := view.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := stream.Sample(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("online sample from the box predicate:")
	for _, r := range batch {
		fmt.Printf("  day=%-4d amount=%d\n", r.Key, r.Amount)
	}

	// Online COUNT/SUM estimate for the box.
	est, err := view.NewEstimator(q)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range batch {
		est.Add(float64(r.Amount))
	}
	for est.Count() < 2000 {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		est.Add(float64(rec.Amount))
	}
	sumLo, sumHi, err := est.SumInterval(0.95)
	if err != nil {
		log.Fatal(err)
	}
	var exact float64
	for i := range recs {
		if q.ContainsRecord(&recs[i]) {
			exact += float64(recs[i].Amount)
		}
	}
	fmt.Printf("\nonline SUM(AMOUNT) after %d samples: [%.0f, %.0f] at 95%%\n",
		est.Count(), sumLo, sumHi)
	fmt.Printf("exact SUM(AMOUNT):                    %.0f\n", exact)

	// Output:
	// 2-d sample view: 300000 records, height 10
	//
	// online sample from the box predicate:
	//   day=187  amount=24734
	//   day=278  amount=52313
	//   day=227  amount=80712
	//   day=276  amount=97677
	//   day=349  amount=86825
	//   day=227  amount=82317
	//   day=350  amount=63153
	//   day=255  amount=53016
	//
	// online SUM(AMOUNT) after 2000 samples: [360238582, 373093598] at 95%
	// exact SUM(AMOUNT):                    367087417
}
