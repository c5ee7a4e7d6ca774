package sampleview_test

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"sort"

	"sampleview"
)

// Scalable clustering over an online sample, in the spirit of Bradley et
// al.'s scalable K-means (the paper's Section I cites it as a canonical
// consumer of randomized input orderings). Points inside a temporal range
// are clustered by consuming the view's online sample one record at a
// time with an incremental (MacQueen-style) K-means update; because every
// prefix of the stream is a uniform random sample, the centroids converge
// long before the predicate is exhausted.
func Example_kmeans() {
	const k = 4
	// SALE records whose (DAY-in-year, AMOUNT) pairs form four clusters:
	// e.g. winter/cheap, winter/expensive, summer/cheap, summer/expensive.
	rng := rand.New(rand.NewPCG(11, 11))
	centers := [k][2]float64{
		{60, 20_000}, {60, 90_000}, {240, 25_000}, {240, 80_000},
	}
	const n = 400_000
	recs := make([]sampleview.Record, n)
	for i := range recs {
		c := centers[rng.IntN(k)]
		day := int64(c[0] + rng.NormFloat64()*25)
		if day < 0 {
			day = 0
		}
		amount := int64(c[1] + rng.NormFloat64()*6000)
		recs[i] = sampleview.Record{Key: day, Amount: amount, Seq: uint64(i)}
	}

	view, err := sampleview.CreateFromSlice("", recs, sampleview.Options{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	defer view.Close()

	// Cluster only the sales with DAY in [0, 365).
	stream, err := view.Query(sampleview.Box1D(0, 364))
	if err != nil {
		log.Fatal(err)
	}

	// Incremental K-means over the online sample.
	var centroids [k][2]float64
	var counts [k]float64
	// Seed centroids from the first k samples (uniform, so unbiased).
	for i := 0; i < k; i++ {
		rec, err := stream.Next()
		if err != nil {
			log.Fatal(err)
		}
		centroids[i] = [2]float64{float64(rec.Key), float64(rec.Amount)}
		counts[i] = 1
	}

	report := func(consumed int) {
		cs := centroids
		sort.Slice(cs[:], func(i, j int) bool {
			if cs[i][0] != cs[j][0] {
				return cs[i][0] < cs[j][0]
			}
			return cs[i][1] < cs[j][1]
		})
		fmt.Printf("after %7d samples:", consumed)
		for _, c := range cs {
			fmt.Printf(" (%.0f, %.0f)", c[0], c[1])
		}
		fmt.Println()
	}

	consumed := k
	next := 256
	const maxSamples = 60_000
	for consumed < maxSamples {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		x := [2]float64{float64(rec.Key), float64(rec.Amount)}
		best, bestD := 0, math.Inf(1)
		for i := 0; i < k; i++ {
			// Scale AMOUNT down so both dimensions contribute comparably.
			dx := x[0] - centroids[i][0]
			dy := (x[1] - centroids[i][1]) / 300
			if d := dx*dx + dy*dy; d < bestD {
				best, bestD = i, d
			}
		}
		counts[best]++
		centroids[best][0] += (x[0] - centroids[best][0]) / counts[best]
		centroids[best][1] += (x[1] - centroids[best][1]) / counts[best]
		consumed++
		if consumed == next {
			report(consumed)
			next *= 4
		}
	}
	report(consumed)
	fmt.Println("\ntrue generating centers (day, amount):")
	fmt.Println("  (60, 20000) (60, 90000) (240, 25000) (240, 80000)")
	fmt.Printf("\nclustered %d of %d matching records: the uniform online sample\n", consumed, n)
	fmt.Println("converges without ever reading most of the data.")

	// Output:
	// after     256 samples: (60, 90323) (62, 20521) (232, 24437) (237, 81498)
	// after    1024 samples: (59, 19877) (60, 90057) (236, 80593) (236, 24765)
	// after    4096 samples: (59, 90023) (59, 19801) (239, 24777) (239, 80311)
	// after   16384 samples: (59, 19897) (60, 89792) (239, 80049) (239, 24936)
	// after   60000 samples: (59, 19926) (60, 89939) (239, 25039) (240, 79990)
	//
	// true generating centers (day, amount):
	//   (60, 20000) (60, 90000) (240, 25000) (240, 80000)
	//
	// clustered 60000 of 400000 matching records: the uniform online sample
	// converges without ever reading most of the data.
}
