package sampleview_test

import (
	"fmt"
	"log"
	"math/rand/v2"

	"sampleview"
	"sampleview/internal/sqlish"
)

// Approximate SQL: the full online-aggregation pipeline the paper
// motivates, end to end - build a sample view, then answer an aggregate
// SQL query with confidence intervals that tighten as the online sample
// grows, stopping at a requested precision instead of scanning the data.
func Example_approxSQL() {
	// A SALE relation where AMOUNT depends on the season, so per-bucket
	// answers differ.
	rng := rand.New(rand.NewPCG(99, 99))
	const n = 400_000
	recs := make([]sampleview.Record, n)
	for i := range recs {
		day := rng.Int64N(365)
		base := int64(20_000)
		if day >= 300 || day < 60 { // holiday season
			base = 60_000
		}
		recs[i] = sampleview.Record{
			Key:    day,
			Amount: base + rng.Int64N(30_000),
			Seq:    uint64(i),
		}
	}
	view, err := sampleview.CreateFromSlice("", recs, sampleview.Options{Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	defer view.Close()

	sql := `SELECT COUNT(*), AVG(amount), MEDIAN(amount)
	        FROM sale
	        WHERE key BETWEEN 240 AND 359
	        GROUP BY bucket(key, 60)
	        CONFIDENCE 95 ERROR 2`
	fmt.Println("query:", sql)
	st, err := sqlish.Parse(sql)
	if err != nil {
		log.Fatal(err)
	}

	q := st.Query
	q.ProgressEvery = 2000
	q.Progress = func(r *sampleview.AggResult) bool {
		fmt.Printf("\n-- %d samples consumed\n", r.Samples)
		printAggGroups(r)
		return true
	}
	res, err := view.RunQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	status := "approximate"
	if res.Exact {
		status = "exact (predicate exhausted)"
	}
	fmt.Printf("\n== final after %d samples (%s)\n", res.Samples, status)
	printAggGroups(res)

	// Show how little data the answer needed.
	var matching int
	for i := range recs {
		if q.Predicate.ContainsRecord(&recs[i]) {
			matching++
		}
	}
	fmt.Printf("\nanswered from %d samples out of %d matching records (%.1f%%)\n",
		res.Samples, matching, 100*float64(res.Samples)/float64(matching))

	// Output:
	// query: SELECT COUNT(*), AVG(amount), MEDIAN(amount)
	// 	        FROM sale
	// 	        WHERE key BETWEEN 240 AND 359
	// 	        GROUP BY bucket(key, 60)
	// 	        CONFIDENCE 95 ERROR 2
	//
	// -- 2000 samples consumed
	//   day [240,299]     COUNT=67546 [64670, 70421]  AVG=34902 [34369, 35435]  QUANTILE=34881 [33852, 36005]
	//   day [300,359]     COUNT=63738 [60863, 66614]  AVG=74476 [73940, 75013]  QUANTILE=74317 [73564, 75104]
	//
	// -- 4000 samples consumed
	//   day [240,299]     COUNT=66266 [64231, 68300]  AVG=35011 [34635, 35386]  QUANTILE=34931 [34387, 35561]
	//   day [300,359]     COUNT=65018 [62984, 67053]  AVG=74745 [74364, 75127]  QUANTILE=74665 [74011, 75220]
	//
	// -- 6000 samples consumed
	//   day [240,299]     COUNT=64635 [62975, 66296]  AVG=34988 [34678, 35299]  QUANTILE=34936 [34470, 35462]
	//   day [300,359]     COUNT=66649 [64988, 68309]  AVG=74912 [74605, 75220]  QUANTILE=74789 [74250, 75279]
	//
	// -- 8000 samples consumed
	//   day [240,299]     COUNT=64953 [63514, 66391]  AVG=34991 [34722, 35259]  QUANTILE=34975 [34579, 35388]
	//   day [300,359]     COUNT=66331 [64893, 67770]  AVG=74949 [74682, 75216]  QUANTILE=74934 [74375, 75393]
	//
	// -- 10000 samples consumed
	//   day [240,299]     COUNT=67349 [66063, 68635]  AVG=34971 [34736, 35207]  QUANTILE=34955 [34603, 35321]
	//   day [300,359]     COUNT=63935 [62649, 65221]  AVG=74845 [74601, 75089]  QUANTILE=74764 [74281, 75137]
	//
	// -- 12000 samples consumed
	//   day [240,299]     COUNT=65336 [64161, 66510]  AVG=34981 [34763, 35198]  QUANTILE=34957 [34649, 35312]
	//   day [300,359]     COUNT=65948 [64774, 67123]  AVG=74891 [74671, 75112]  QUANTILE=74789 [74334, 75139]
	//
	// == final after 12000 samples (approximate)
	//   day [240,299]     COUNT=65336 [64161, 66510]  AVG=34981 [34763, 35198]  QUANTILE=34957 [34649, 35312]
	//   day [300,359]     COUNT=65948 [64774, 67123]  AVG=74891 [74671, 75112]  QUANTILE=74789 [74334, 75139]
	//
	// answered from 12000 samples out of 131284 matching records (9.1%)
}

func printAggGroups(r *sampleview.AggResult) {
	for _, g := range r.Groups {
		fmt.Printf("  day %-12s", g.Key)
		for _, e := range g.Estimates {
			if e.HasCI && e.Lo != e.Hi {
				fmt.Printf("  %v=%.0f [%.0f, %.0f]", e.Agg.Kind, e.Value, e.Lo, e.Hi)
			} else {
				fmt.Printf("  %v=%.0f", e.Agg.Kind, e.Value)
			}
		}
		fmt.Println()
	}
}
