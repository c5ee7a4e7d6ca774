package core

import (
	"path/filepath"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// BenchmarkDrain drains thirty seeded 0.25% predicates of a 1M-record tree
// built as svsuite's scan-local view is (uniform records of data seed 2006,
// h = 12, 2,048 one-page leaves on 64 KiB pages, the default disk model, a
// view file read through the page-file backend) to their end, 256 records a
// draw, each stream on its own clock. One op is the thirty drains. It
// reports the time per sample, need's evaluations per drain and the
// simulated time per drain, which a change to the drain's CPU must leave as
// it is.
func BenchmarkDrain(b *testing.B) {
	sim := iosim.New(iosim.DefaultModel())
	rel, err := workload.GenerateRelation(sim, 1_000_000, workload.Uniform, 2006)
	if err != nil {
		b.Fatal(err)
	}
	f, err := pagefile.Create(sim, filepath.Join(b.TempDir(), "drain.view"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	tree, err := Create(f, rel, Params{Seed: 2006, MemPages: 2048, Parallelism: 2})
	if err != nil {
		b.Fatal(err)
	}
	if tree.h != 12 || tree.DataPages() != tree.nLeaves {
		b.Fatalf("h = %d, %d pages of leaf data for %d leaves: not scan-local's shape", tree.h, tree.DataPages(), tree.nLeaves)
	}
	qg := workload.NewQueryGen(52)
	qs := make([]record.Box, 30)
	for i := range qs {
		qs[i] = qg.Range1D(0.0025)
	}
	var samples, needs int64
	var simulated time.Duration
	buf := make([]record.Record, 256)
	b.ResetTimer()
	for range b.N {
		for _, q := range qs {
			ck := sim.Fork()
			s, err := tree.WithClock(ck).Query(q)
			if err != nil {
				b.Fatal(err)
			}
			for len(buf) == 256 {
				if buf, err = s.AppendNext(buf[:0], 256); err != nil {
					b.Fatal(err)
				}
				samples += int64(len(buf))
			}
			buf, needs = buf[:256], needs+s.needCalls
			simulated += ck.Now()
			s.Close()
		}
	}
	drains := float64(b.N * len(qs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
	b.ReportMetric(float64(needs)/drains, "needs/drain")
	b.ReportMetric(simulated.Seconds()/drains, "sim-s/drain")
}
