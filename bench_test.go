package sampleview

// One benchmark per figure of the paper's evaluation, plus ablation
// benches for the design choices DESIGN.md calls out. The figure benches
// run the same generators as cmd/svbench at a reduced scale so that
// `go test -bench=.` finishes quickly; the reported custom metrics are the
// end-of-window sampling totals of each method (percent of the relation's
// records), i.e. the quantities the paper plots. Full-scale runs for
// EXPERIMENTS.md use cmd/svbench.

import (
	"io"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sampleview/internal/btree"
	"sampleview/internal/core"
	"sampleview/internal/figures"
	"sampleview/internal/iosim"
	"sampleview/internal/lsm"
	"sampleview/internal/pagefile"
	"sampleview/internal/permfile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

func benchConfig() figures.Config {
	return figures.Config{
		N:          150_000,
		Queries:    3,
		Seed:       2006,
		Model:      iosim.DefaultModel(),
		MemPages:   32,
		GridPoints: 50,
		// Raw physical disk model: at benchmark scale the scale-matched
		// geometry saturates every method within the window; the physical
		// model keeps the transient visible. EXPERIMENTS.md uses the
		// scale-matched cmd/svbench runs.
		Physical: true,
	}
}

var (
	wb1Once, wb2Once sync.Once
	wb1, wb2         *figures.Workbench
	wb1Err, wb2Err   error
)

func workbench(b *testing.B, dims int) *figures.Workbench {
	b.Helper()
	if dims == 1 {
		wb1Once.Do(func() { wb1, wb1Err = figures.NewWorkbench(benchConfig(), 1) })
		if wb1Err != nil {
			b.Fatal(wb1Err)
		}
		return wb1
	}
	wb2Once.Do(func() { wb2, wb2Err = figures.NewWorkbench(benchConfig(), 2) })
	if wb2Err != nil {
		b.Fatal(wb2Err)
	}
	return wb2
}

// reportFigure publishes each series' end-of-window value as a benchmark
// metric (percent of the relation's records retrieved).
func reportFigure(b *testing.B, fig *figures.Figure) {
	b.Helper()
	for _, s := range fig.Series {
		if len(s.Y) == 0 {
			continue
		}
		name := ""
		for _, r := range s.Name {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				name += string(r)
			}
		}
		b.ReportMetric(s.Y[len(s.Y)-1], name+"_pct")
	}
}

func benchFig1D(b *testing.B, id string, sel, maxFrac float64) {
	wb := workbench(b, 1)
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Fig1DOn(wb, id, sel, maxFrac)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

func BenchmarkFig11(b *testing.B) { benchFig1D(b, "11", 0.0025, 0.04) }
func BenchmarkFig12(b *testing.B) { benchFig1D(b, "12", 0.025, 0.04) }
func BenchmarkFig13(b *testing.B) { benchFig1D(b, "13", 0.25, 0.04) }

func BenchmarkFig14(b *testing.B) {
	wb := workbench(b, 1)
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Fig14On(wb)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

func benchFig15(b *testing.B, id string, sel float64) {
	wb := workbench(b, 1)
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Fig15On(wb, id, sel)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the peak of the max-envelope: the paper's headline is that
	// buffering stays a tiny fraction of the relation.
	peak := 0.0
	for _, y := range fig.Series[2].Y {
		if y > peak {
			peak = y
		}
	}
	b.ReportMetric(peak, "peakBufferedFrac")
}

func BenchmarkFig15a(b *testing.B) { benchFig15(b, "15a", 0.0025) }
func BenchmarkFig15b(b *testing.B) { benchFig15(b, "15b", 0.025) }

func benchFig2D(b *testing.B, id string, sel, maxFrac float64) {
	wb := workbench(b, 2)
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Fig2DOn(wb, id, sel, maxFrac)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFigure(b, fig)
}

func BenchmarkFig16(b *testing.B) { benchFig2D(b, "16", 0.0025, 0.05) }
func BenchmarkFig17(b *testing.B) { benchFig2D(b, "17", 0.025, 0.05) }
func BenchmarkFig18(b *testing.B) { benchFig2D(b, "18", 0.25, 0.05) }

// BenchmarkAblationBufferPool sweeps the sampler buffer pool size and
// reports the simulated milliseconds the ranked B+-Tree needs to draw
// 2000 samples from a 25%-selectivity predicate: the baseline's
// performance is largely a function of its cache, one of the sensitivities
// DESIGN.md documents.
func BenchmarkAblationBufferPool(b *testing.B) {
	for _, poolPages := range []int{4, 16, 64, 256} {
		b.Run("pool"+itoa(poolPages), func(b *testing.B) {
			b.ReportAllocs()
			sim := iosim.New(iosim.DefaultModel())
			rel, err := workload.GenerateRelation(sim, 120_000, workload.Uniform, 9)
			if err != nil {
				b.Fatal(err)
			}
			pool := pagefile.NewPool(poolPages)
			tree, err := btree.Build(pagefile.NewMem(sim), rel, pool, 32)
			if err != nil {
				b.Fatal(err)
			}
			qg := workload.NewQueryGen(10)
			rng := rand.New(rand.NewPCG(1, 1))
			var simMS float64
			for i := 0; i < b.N; i++ {
				pool.Reset()
				q := qg.Range1D(0.25)
				s, err := tree.NewSampler(q.Dim(0), rng)
				if err != nil {
					b.Fatal(err)
				}
				t0 := sim.Now()
				for k := 0; k < 2000; k++ {
					if _, err := s.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				simMS = float64((sim.Now() - t0).Milliseconds())
			}
			b.ReportMetric(simMS, "simMS/2000draws")
		})
	}
}

// BenchmarkAblationLeafLayout reports the space utilization of the two
// leaf layout schemes of Section V-F: the variable-size scheme in use
// versus the rejected fixed-size scheme (every leaf slot sized for the
// largest leaf). The paper estimates <15% utilization for a fixed scheme
// tuned for 99% overflow safety; sizing to the observed max gives the
// same order.
func BenchmarkAblationLeafLayout(b *testing.B) {
	sim := iosim.New(iosim.DefaultModel())
	rel, err := workload.GenerateRelation(sim, 200_000, workload.Uniform, 11)
	if err != nil {
		b.Fatal(err)
	}
	var st core.LeafStats
	for i := 0; i < b.N; i++ {
		tree, err := core.Create(pagefile.NewMem(sim), rel, core.Params{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		st = tree.LeafStats()
	}
	b.ReportMetric(st.VariableUtilization*100, "variable_util_pct")
	b.ReportMetric(st.FixedMaxUtilization*100, "fixedmax_util_pct")
	b.ReportMetric(st.Fixed99Utilization*100, "fixed99_util_pct")
}

// BenchmarkAblationDifferential measures the per-sample cost of querying
// through the differential buffer (Section IX's update strategy) as the
// buffered fraction grows.
func BenchmarkAblationDifferential(b *testing.B) {
	sim := iosim.New(iosim.DefaultModel())
	rel, err := workload.GenerateRelation(sim, 100_000, workload.Uniform, 12)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := core.Create(pagefile.NewMem(sim), rel, core.Params{Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	for _, deltaFrac := range []float64{0, 0.05, 0.20} {
		b.Run("delta"+itoa(int(deltaFrac*100))+"pct", func(b *testing.B) {
			b.ReportAllocs()
			store, err := lsm.CreateStore(sim, "")
			if err != nil {
				b.Fatal(err)
			}
			v := lsm.NewView(tree, store)
			g := workload.NewGenerator(workload.Uniform, 14)
			for i := 0; i < int(deltaFrac*100_000); i++ {
				if err := v.Insert(g.Next()); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewPCG(2, 2))
			q := record.Box1D(0, workload.KeyDomain/4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := v.Query(q, rng)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 1000; k++ {
					if _, err := s.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkStreamParallel drives many concurrent streams over one shared
// view, the contention profile of the serving layer. Each iteration runs
// one seeded query and draws 1000 samples; every leaf read grabs a scratch
// page from the view file's buffer pool, so this is the benchmark that
// shows the pool's single mutex versus its striped replacement (see
// results/realio-bench.md for the before/after numbers).
func BenchmarkStreamParallel(b *testing.B) {
	recs := genRecords(200_000, 41)
	v, err := CreateFromSlice("", recs, Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	var next atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			seed := next.Add(1)
			qg := workload.NewQueryGen(seed)
			s, err := v.Query(qg.Range1D(0.25))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Sample(1000); err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkBuildParallel measures wall-clock bulk-construction time at
// increasing worker counts over one fixed relation. The built view is
// byte-identical at every setting (TestBuildParallelismByteIdentical), so
// this isolates the construction pipeline's parallel scaling: run formation,
// tag assignment and leaf rendering all fan out across the workers.
func BenchmarkBuildParallel(b *testing.B) {
	const n = 400_000
	counts := []int{1, 2, 4}
	if c := runtime.NumCPU(); c > 4 {
		counts = append(counts, c)
	}
	for _, workers := range counts {
		b.Run("p"+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			sim := iosim.New(iosim.DefaultModel())
			rel, err := workload.GenerateRelation(sim, n, workload.Uniform, 51)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Create(pagefile.NewMem(sim), rel, core.Params{
					Seed:        52,
					Parallelism: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFiguresParallel measures wall-clock figure regeneration
// (workbench build plus Figure 11) at increasing worker counts.
func BenchmarkFiguresParallel(b *testing.B) {
	counts := []int{1, 2, 4}
	if c := runtime.NumCPU(); c > 4 {
		counts = append(counts, c)
	}
	for _, workers := range counts {
		b.Run("p"+itoa(workers), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Parallel = workers
			for i := 0; i < b.N; i++ {
				wb, err := figures.NewWorkbench(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := figures.Fig1DOn(wb, "11", 0.0025, 0.04); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConstruction measures bulk-construction cost in units of
// relation scans (the paper: building an ACE Tree "requires only two
// external sorts" plus the assignment and layout passes). Reported per
// structure so the sample view's build cost can be compared with its
// conventional competitors.
func BenchmarkConstruction(b *testing.B) {
	const n = 200_000
	scanOf := func(sim *iosim.Sim) float64 {
		recsPerPage := int64(sim.Model().PageSize / 100)
		return float64(sim.ScanCost((n + recsPerPage - 1) / recsPerPage))
	}
	b.Run("acetree", func(b *testing.B) {
		var mult float64
		for i := 0; i < b.N; i++ {
			sim := iosim.New(iosim.DefaultModel())
			rel, err := workload.GenerateRelation(sim, n, workload.Uniform, 51)
			if err != nil {
				b.Fatal(err)
			}
			t0 := sim.Now()
			if _, err := core.Create(pagefile.NewMem(sim), rel, core.Params{Seed: 52}); err != nil {
				b.Fatal(err)
			}
			mult = float64(sim.Now()-t0) / scanOf(sim)
		}
		b.ReportMetric(mult, "scans")
	})
	b.Run("btree", func(b *testing.B) {
		var mult float64
		for i := 0; i < b.N; i++ {
			sim := iosim.New(iosim.DefaultModel())
			rel, err := workload.GenerateRelation(sim, n, workload.Uniform, 51)
			if err != nil {
				b.Fatal(err)
			}
			t0 := sim.Now()
			if _, err := btree.Build(pagefile.NewMem(sim), rel, pagefile.NewPool(64), 64); err != nil {
				b.Fatal(err)
			}
			mult = float64(sim.Now()-t0) / scanOf(sim)
		}
		b.ReportMetric(mult, "scans")
	})
	b.Run("permfile", func(b *testing.B) {
		var mult float64
		for i := 0; i < b.N; i++ {
			sim := iosim.New(iosim.DefaultModel())
			rel, err := workload.GenerateRelation(sim, n, workload.Uniform, 51)
			if err != nil {
				b.Fatal(err)
			}
			t0 := sim.Now()
			if _, err := permfile.Build(pagefile.NewMem(sim), rel, 64, 53); err != nil {
				b.Fatal(err)
			}
			mult = float64(sim.Now()-t0) / scanOf(sim)
		}
		b.ReportMetric(mult, "scans")
	})
}
