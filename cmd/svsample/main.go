// Command svsample draws an online random sample from a range predicate
// over a sample view built with svbuild. Online aggregation with confidence
// intervals is svquery's ("SELECT AVG(amount) ... ERROR 1").
//
// Usage:
//
//	svsample -view sale.view -lo 100 -hi 5000 -count 20
//	svsample -view sale.view -dims 2 -lo 0 -hi 99 -alo 10 -ahi 20 -count 10
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"sampleview"
)

func main() {
	var (
		view  = flag.String("view", "", "view file to open (required)")
		lo    = flag.Int64("lo", math.MinInt64, "lower bound on Key")
		hi    = flag.Int64("hi", math.MaxInt64, "upper bound on Key")
		alo   = flag.Int64("alo", math.MinInt64, "lower bound on Amount (2-d views)")
		ahi   = flag.Int64("ahi", math.MaxInt64, "upper bound on Amount (2-d views)")
		count = flag.Int("count", 10, "samples to print (0 = drain the predicate)")
	)
	flag.Parse()
	if *view == "" {
		fmt.Fprintln(os.Stderr, "svsample: -view is required")
		flag.Usage()
		os.Exit(2)
	}
	v, err := sampleview.Open(*view, sampleview.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "svsample: %v\n", err)
		os.Exit(1)
	}
	defer v.Close()

	var q sampleview.Box
	if v.Dims() == 2 {
		q = sampleview.Box2D(*lo, *hi, *alo, *ahi)
	} else {
		q = sampleview.Box1D(*lo, *hi)
	}
	stream, err := v.Query(q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svsample: %v\n", err)
		os.Exit(1)
	}

	printed := 0
	for *count == 0 || printed < *count {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "svsample: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("key=%d amount=%d seq=%d\n", rec.Key, rec.Amount, rec.Seq)
		printed++
	}
	st := stream.Stats() // the sample's own I/O, not the view's since Open
	fmt.Fprintf(os.Stderr, "%d samples; I/O: %d random + %d sequential reads; simulated time %s\n",
		printed, st.Counters.RandomReads, st.Counters.SequentialReads, st.SimTime)
}
