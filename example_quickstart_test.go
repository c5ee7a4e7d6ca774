package sampleview_test

import (
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"

	"sampleview"
)

// Quickstart: build a materialized sample view over a synthetic SALE
// relation and draw an online random sample from a range predicate.
func Example_quickstart() {
	// Generate a small SALE relation: DAY in [0, 3650) (ten years of
	// days), AMOUNT in cents.
	rng := rand.New(rand.NewPCG(42, 42))
	recs := make([]sampleview.Record, 200_000)
	for i := range recs {
		recs[i] = sampleview.Record{
			Key:    rng.Int64N(3650),          // DAY
			Amount: 100 + rng.Int64N(100_000), // AMOUNT
			Seq:    uint64(i),
		}
	}

	// CREATE MATERIALIZED SAMPLE VIEW MySam AS SELECT * FROM SALE INDEX ON DAY
	dir, err := os.MkdirTemp("", "sampleview-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "mysam.view")
	view, err := sampleview.CreateFromSlice(path, recs, sampleview.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer view.Close()
	fmt.Printf("built view: %d records, ACE tree height %d\n\n", view.Count(), view.Height())

	// SELECT * FROM SALE WHERE DAY BETWEEN 1000 AND 1090 — sampled.
	q := sampleview.Box1D(1000, 1090)
	stream, err := view.Query(q)
	if err != nil {
		log.Fatal(err)
	}

	first, err := stream.Sample(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("first 10 records of the online sample (uniform over the predicate):")
	for _, r := range first {
		fmt.Printf("  day=%-5d amount=%d\n", r.Key, r.Amount)
	}

	// The stream keeps growing - and stays a uniform sample at every
	// prefix - until the predicate is exhausted.
	rest, err := stream.Sample(1 << 30)
	if err != nil {
		log.Fatal(err)
	}
	est, err := view.EstimateCount(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npredicate exhausted after %d records (view estimated %.0f)\n",
		len(first)+len(rest), est)

	st := view.Stats()
	fmt.Printf("I/O performed: %d random + %d sequential page reads (simulated disk time %s)\n",
		st.Counters.RandomReads, st.Counters.SequentialReads, st.SimTime)

	// Output:
	// built view: 200000 records, ACE tree height 10
	//
	// first 10 records of the online sample (uniform over the predicate):
	//   day=1068  amount=75337
	//   day=1065  amount=90945
	//   day=1017  amount=13561
	//   day=1058  amount=80812
	//   day=1045  amount=59388
	//   day=1073  amount=63757
	//   day=1015  amount=29992
	//   day=1070  amount=64652
	//   day=1055  amount=41917
	//   day=1037  amount=48975
	//
	// predicate exhausted after 4988 records (view estimated 5009)
	// I/O performed: 233 random + 2495 sequential page reads (simulated disk time 9.2708s)
}
