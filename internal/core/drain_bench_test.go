package core

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// BenchmarkDrain drains thirty seeded 0.25% predicates of scanLocalTree to
// their end, 256 records a draw, each stream on its own clock. One op is the
// thirty drains. It reports the time per sample, need's evaluations per drain
// and the simulated time per drain, which a change to the drain's CPU must
// leave as it is, beside the drains' mean buy point z and the share of them
// that took the pass.
func BenchmarkDrain(b *testing.B) {
	tree, sim := scanLocalTree(b)
	qg := workload.NewQueryGen(52)
	qs := make([]record.Box, 30)
	for i := range qs {
		qs[i] = qg.Range1D(0.0025)
	}
	var samples, needs, passed int64
	var simulated time.Duration
	var zs float64
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
			simulated, zs = simulated+ck.Now(), zs+s.z
			if s.passed {
				passed++
			}
			s.Close()
		}
	}
	drains := float64(b.N * len(qs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
	b.ReportMetric(float64(needs)/drains, "needs/drain")
	b.ReportMetric(simulated.Seconds()/drains, "sim-s/drain")
	b.ReportMetric(zs/drains, "z-mean")
	b.ReportMetric(float64(passed)/drains, "passed/drain")
}

// BenchmarkParking runs svsuite's op shape on scanLocalTree: an op opens two
// streams on 25% predicates (sixteen seeded pairs in turn) and draws 5,000
// samples from each, 256 at a time, alternating, so both hold parked batches
// at once, then closes both. It reports the bytes allocated per sample and
// the parking chunks made per op: on a warm tree a closed stream's scratch
// keeps its chunks for the next stream, and no op should make one.
func BenchmarkParking(b *testing.B) {
	tree, _ := scanLocalTree(b)
	qg := workload.NewQueryGen(57)
	pairs := make([][2]record.Box, 16)
	for i := range pairs {
		pairs[i] = [2]record.Box{qg.Range1D(0.25), qg.Range1D(0.25)}
	}
	op := func(i int) (samples int64, made int) {
		idle := map[*record.Record]bool{}
		for _, chunks := range idleChunks(tree) {
			for _, c := range chunks {
				idle[c] = true
			}
		}
		var ss [2]*Stream
		for j, q := range pairs[i%len(pairs)] {
			s, err := tree.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			ss[j] = s
		}
		var drawn [2]int
		var buf []record.Record
		for drawn[0] < 5000 || drawn[1] < 5000 {
			for j, s := range ss {
				if drawn[j] >= 5000 {
					continue
				}
				var err error
				if buf, err = s.AppendNext(buf[:0], 256); err != nil {
					b.Fatal(err)
				}
				if drawn[j] += len(buf); len(buf) < 256 {
					drawn[j] = 5000
				}
				samples += int64(len(buf))
			}
		}
		for _, s := range ss {
			for _, c := range s.chunks {
				if !idle[chunkOf(c)] {
					made++
				}
			}
			s.Close()
		}
		return samples, made
	}
	for i := range pairs { // warm the tree: these ops make every chunk the pairs park into
		op(i)
	}
	var samples int64
	var made int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := range b.N {
		n, m := op(i)
		samples, made = samples+n, made+m
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(samples), "B/sample")
	b.ReportMetric(float64(made)/float64(b.N), "chunks/op")
}

// scanLocalTree builds a 1M-record tree as svsuite's scan-local view is
// (uniform records of data seed 2006, h = 12, 2,048 one-page leaves on 64 KiB
// pages, the default disk model, a view file read through the page-file
// backend).
func scanLocalTree(b *testing.B) (*Tree, *iosim.Sim) {
	sim := iosim.New(iosim.DefaultModel())
	rel, err := workload.GenerateRelation(sim, 1_000_000, workload.Uniform, 2006)
	if err != nil {
		b.Fatal(err)
	}
	f, err := pagefile.Create(sim, filepath.Join(b.TempDir(), "drain.view"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	tree, err := Create(f, rel, Params{Seed: 2006, MemPages: 2048, Parallelism: 2})
	if err != nil {
		b.Fatal(err)
	}
	if tree.h != 12 || tree.DataPages() != tree.nLeaves {
		b.Fatalf("h = %d, %d pages of leaf data for %d leaves: not scan-local's shape", tree.h, tree.DataPages(), tree.nLeaves)
	}
	return tree, sim
}
