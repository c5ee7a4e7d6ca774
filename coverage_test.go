package sampleview

import (
	"fmt"
	"math"
	"testing"

	"sampleview/internal/aqp"
	"sampleview/internal/record"
	"sampleview/internal/stats"
)

// seededSource serves aqp one seeded stream over a view, with the view's
// population estimate taken once (the view does not change between trials).
type seededSource struct {
	v      *View
	seed   uint64
	pop    float64
	stream *Stream
}

func (s *seededSource) SampleStream(q record.Box) (aqp.Stream, error) {
	st, err := s.v.QuerySeeded(q, s.seed)
	s.stream = st
	return st, err
}

func (s *seededSource) EstimateCount(record.Box) (float64, error) { return s.pop, nil }

// TestIntervalCoverageUnderTombstones measures how often the nominal 95%
// intervals of AVG, SUM and COUNT cover the truth when a tenth of the
// predicate's matches are tombstoned through the write path: tombstones sit
// in two flushed levels and in the memview, beside fresh inserts in each.
// Each of 2,000 seeded streams gives one estimate per aggregate at n = 100
// and 1,000 (prefixes of the one stream); n = 10,000 takes over two minutes
// and is left to a one-off run. A cell inside 93-97% is
// asserted to stay there. A cell outside it is a known defect: its subtest
// pins today's count exactly, so a change that moves it fails here and must
// say which way it went.
func TestIntervalCoverageUnderTombstones(t *testing.T) {
	const trials = 2000
	if raceEnabled {
		t.Skip("2,000 streams take about 4 minutes under the race detector; the test is single-goroutine")
	}
	sizes := []int64{100, 1000}
	base := genRecords(200_000, 81)
	v, err := CreateFromSlice("", base, Options{Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	q := Box1D(0, 1<<19)
	live := map[uint64]Record{}
	for _, r := range base {
		if q.ContainsRecord(&r) {
			live[r.Seq] = r
		}
	}
	// Tombstone every tenth match in Seq order, and insert 6,000 fresh
	// records, in three rounds: two flushed to levels, the last in the memview.
	var doomed []Record
	for i := range base {
		if q.ContainsRecord(&base[i]) && base[i].Seq%10 == 3 {
			doomed = append(doomed, base[i])
		}
	}
	fresh := genRecords(6000, 83)
	for round := 0; round < 3; round++ {
		for i := round; i < len(doomed); i += 3 {
			if err := v.Delete(doomed[i]); err != nil {
				t.Fatal(err)
			}
			delete(live, doomed[i].Seq)
		}
		for i := round * 2000; i < (round+1)*2000; i++ {
			fresh[i].Seq += 1 << 40
			if err := v.Insert(fresh[i]); err != nil {
				t.Fatal(err)
			}
			if q.ContainsRecord(&fresh[i]) {
				live[fresh[i].Seq] = fresh[i]
			}
		}
		if round < 2 {
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sum float64
	for _, r := range live {
		sum += float64(r.Amount)
	}
	truth := map[AggKind]float64{Avg: sum / float64(len(live)), Sum: sum, Count: float64(len(live))}
	pop, err := v.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d live matches (%d tombstoned), estimated population %.0f", len(live), len(doomed), pop)

	amount := func(r *Record) float64 { return float64(r.Amount) }
	aggs := []AggSpec{{Kind: Avg, Value: amount}, {Kind: Sum, Value: amount}, {Kind: Count}}
	covered := map[string]int{}
	avgs := map[int64]*stats.Estimator{}
	cell := func(k AggKind, n int64) string { return fmt.Sprintf("%v/n=%d", k, n) }
	for seed := uint64(1); seed <= trials; seed++ {
		src := &seededSource{v: v, seed: seed, pop: pop}
		next := 0
		_, err := aqp.Run(src, AggQuery{
			Predicate: q, Aggregates: aggs, MaxSamples: sizes[len(sizes)-1], ProgressEvery: 100,
			Progress: func(r *AggResult) bool {
				if next < len(sizes) && r.Samples == sizes[next] {
					if avgs[r.Samples] == nil {
						avgs[r.Samples] = stats.NewEstimator()
					}
					avgs[r.Samples].Add(r.Groups[0].Estimates[0].Value)
					for _, e := range r.Groups[0].Estimates {
						if e.Lo <= truth[e.Agg.Kind] && truth[e.Agg.Kind] <= e.Hi {
							covered[cell(e.Agg.Kind, r.Samples)]++
						}
					}
					next++
				}
				return true
			},
		})
		src.stream.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Today's coverage, out of 2,000, of every cell outside 93-97%. COUNT's
	// interval has zero width without GROUP BY, so it covers only an exact
	// population, and the estimate is 92,751 against 92,746 live. AVG and SUM
	// over-cover because the streams share their base samples: the base's
	// stab order is fixed when the view is built, and a seed only reshuffles
	// batches and the merge, so AVG's estimates spread 15,912 and 3,946 across
	// streams at n = 100 and 1,000 against a nominal 30,253 and 9,567. At
	// n = 10,000 one run covered 2,000, 2,000 and 0 of 2,000.
	knownDefect := map[string]int{
		"AVG/n=100": 1967, "SUM/n=100": 1967, "COUNT/n=100": 0,
		"AVG/n=1000": 2000, "SUM/n=1000": 2000, "COUNT/n=1000": 0,
	}
	for _, n := range sizes {
		// Nominal: the standard error the intervals assume, sd/sqrt(n).
		t.Logf("AVG at n=%d: estimates spread %.0f across streams, nominal %.0f", n, avgs[n].StdDev(), stdDev(live)/math.Sqrt(float64(n)))
		for _, a := range aggs {
			name := cell(a.Kind, n)
			got := covered[name]
			t.Logf("%s: %d of %d covered (%.1f%%)", name, got, trials, 100*float64(got)/trials)
			want, defect := knownDefect[name]
			t.Run(map[bool]string{false: "in-band/", true: "known-defect/"}[defect]+name, func(t *testing.T) {
				if defect && got != want {
					t.Fatalf("%d of %d covered, today %d: the defect moved; re-measure and say which way", got, trials, want)
				}
				if !defect && (got < 93*trials/100 || got > 97*trials/100) {
					t.Fatalf("%d of %d covered, outside 93-97%%", got, trials)
				}
			})
		}
	}
}

// stdDev is the population standard deviation of the records' Amounts.
func stdDev(recs map[uint64]Record) float64 {
	e := stats.NewEstimator()
	for _, r := range recs {
		e.Add(float64(r.Amount))
	}
	return e.StdDev()
}
