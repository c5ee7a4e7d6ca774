// Command svbench regenerates the figures of the paper's evaluation and
// prints each series as TSV.
//
// Usage:
//
//	svbench -fig all                # every figure at default scale
//	svbench -fig 11,12,13 -n 2000000
//	svbench -fig 16 -n 4000000      # 2-d figures discriminate at larger N
//	svbench -shards 1,2,4,8,16 -out results/shard-bench.md
//
// With -shards the figure harness is skipped: the same relation is built
// as a sharded view at each listed shard count and the simulated
// time-to-first-1000-samples is measured per selectivity — shards sit on
// separate simulated disks, so the merged stream's clock is the slowest
// shard's, and the curve should fall near-linearly with K.
//
// Output: one block per figure, tab-separated; the first column is the
// x-axis (% of the time required to scan the relation), followed by one
// column per method (% of the relation's records retrieved; a fraction for
// Figure 15).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sampleview"
	"sampleview/internal/figures"
	"sampleview/internal/workload"
)

func main() {
	var (
		figList  = flag.String("fig", "all", "comma-separated figure ids ("+strings.Join(figures.IDs(), ",")+") or 'all'")
		n        = flag.Int64("n", 0, "records in the SALE relation (0 = default 1M)")
		queries  = flag.Int("queries", 0, "queries averaged per figure (0 = default 10)")
		seed     = flag.Uint64("seed", 2006, "experiment seed")
		grid     = flag.Int("grid", 0, "x-axis grid points (0 = default 160)")
		pool     = flag.Int("pool", 0, "buffer pool pages for rank-based samplers (0 = auto)")
		pageSize = flag.Int("pagesize", 8192, "disk page size in bytes (smaller pages refine leaf granularity)")
		physical = flag.Bool("physical", false, "charge the raw disk model instead of the scale-matched one")
		parallel = flag.Int("par", 0, "worker goroutines for builds and per-figure queries (0 or 1 = sequential)")
		shards   = flag.String("shards", "", "comma-separated shard counts: run the shard-scaling bench instead of figures")
		out      = flag.String("out", "", "shard bench: also write a markdown report to this file")
	)
	flag.Parse()

	if *shards != "" {
		nrec := int64(200_000)
		if *n > 0 {
			nrec = *n
		}
		if err := runShardBench(*shards, nrec, *seed, *parallel, *out); err != nil {
			fmt.Fprintf(os.Stderr, "svbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := figures.DefaultConfig()
	cfg.Physical = *physical
	cfg.Parallel = *parallel
	if *pageSize > 0 {
		m := cfg.Model
		// Keep the sequential transfer rate (~53 MB/s) of the paper's
		// testbed at the chosen page size.
		m.SequentialRead = time.Duration(float64(m.SequentialRead) * float64(*pageSize) / float64(m.PageSize))
		m.SequentialWrite = m.SequentialRead
		m.PageSize = *pageSize
		cfg.Model = m
		// Keep the external sorts' memory budget at ~16 MB regardless of
		// page size so construction does not degenerate into many-pass
		// merges with small pages.
		if mem := 16 << 20 / *pageSize; mem > cfg.MemPages {
			cfg.MemPages = mem
		}
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	cfg.Seed = *seed
	if *grid > 0 {
		cfg.GridPoints = *grid
	}
	if *pool > 0 {
		cfg.PoolPages = *pool
	}

	ids := figures.IDs()
	if *figList != "all" {
		ids = strings.Split(*figList, ",")
	}

	// Group figures by dimensionality so the expensive workbench builds
	// are shared.
	var oneD, twoD []string
	for _, id := range ids {
		switch id {
		case "11", "12", "13", "14", "15a", "15b":
			oneD = append(oneD, id)
		case "16", "17", "18":
			twoD = append(twoD, id)
		default:
			fmt.Fprintf(os.Stderr, "svbench: unknown figure %q\n", id)
			os.Exit(2)
		}
	}

	run := func(dims int, ids []string) {
		if len(ids) == 0 {
			return
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "svbench: building %d-d workbench (n=%d)...\n", dims, cfg.N)
		wb, err := figures.NewWorkbench(cfg, dims)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "svbench: workbench ready in %v (scan time %v)\n",
			time.Since(start).Round(time.Millisecond), wb.ScanTime)
		for _, id := range ids {
			start := time.Now()
			fig, err := generateOn(wb, id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "svbench: figure %s: %v\n", id, err)
				os.Exit(1)
			}
			printFigure(fig)
			fmt.Fprintf(os.Stderr, "svbench: figure %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	run(1, oneD)
	run(2, twoD)
}

// shardBenchSelectivities is the paper's evaluation mix.
var shardBenchSelectivities = []float64{0.0025, 0.025, 0.25}

// shardBenchTarget is the online-sample budget per query.
const shardBenchTarget = 1000

// runShardBench builds the same relation as a sharded view at each shard
// count and reports the simulated time-to-first-1000-samples per
// selectivity, plus the speedup over the single-shard baseline.
func runShardBench(list string, n int64, seed uint64, parallelism int, out string) error {
	var ks []int
	for _, f := range strings.Split(list, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || k <= 0 {
			return fmt.Errorf("bad shard count %q", f)
		}
		ks = append(ks, k)
	}

	gen := workload.NewGenerator(workload.Uniform, seed)
	recs := make([]sampleview.Record, n)
	for i := range recs {
		recs[i] = gen.Next()
	}

	type row struct {
		k     int
		times []time.Duration
		got   []int
	}
	rows := make([]row, 0, len(ks))
	for _, k := range ks {
		start := time.Now()
		v, err := sampleview.CreateSharded("", recs, sampleview.ShardedOptions{
			K: k, Seed: seed, Parallelism: parallelism,
		})
		if err != nil {
			return err
		}
		r := row{k: k}
		qg := workload.NewQueryGen(seed)
		for _, sel := range shardBenchSelectivities {
			q := qg.Range1D(sel)
			s, err := v.Query(q)
			if err != nil {
				v.Close()
				return err
			}
			batch, err := s.Sample(shardBenchTarget)
			if err != nil {
				v.Close()
				return err
			}
			r.times = append(r.times, s.SimNow())
			r.got = append(r.got, len(batch))
			s.Close()
		}
		v.Close()
		rows = append(rows, r)
		fmt.Fprintf(os.Stderr, "svbench: shards=%d done in %v (wall)\n", k, time.Since(start).Round(time.Millisecond))
	}

	// TSV block: simulated time per selectivity, then speedup vs the first
	// listed shard count.
	fmt.Printf("# Shard scaling: simulated time to first %d online samples (n=%d, seed=%d)\n", shardBenchTarget, n, seed)
	fmt.Printf("shards")
	for _, sel := range shardBenchSelectivities {
		fmt.Printf("\tsel=%g", sel)
	}
	for _, sel := range shardBenchSelectivities {
		fmt.Printf("\tspeedup@%g", sel)
	}
	fmt.Println()
	base := rows[0]
	for _, r := range rows {
		fmt.Printf("%d", r.k)
		for _, d := range r.times {
			fmt.Printf("\t%v", d)
		}
		for i := range r.times {
			fmt.Printf("\t%.2f", float64(base.times[i])/float64(r.times[i]))
		}
		fmt.Println()
	}

	if out == "" {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Shard scaling: time to first %d online samples\n\n", shardBenchTarget)
	fmt.Fprintf(&b, "One relation of %d records, partitioned by insertion-sequence hash across K "+
		"simulated disks (seed %d). Each cell is the *simulated* disk time until the merged "+
		"K-way stream has delivered its first %d samples (or the full matching set, for the "+
		"narrow selectivity) — shards read their leaves on separate spindles concurrently, so "+
		"the stream's clock is the slowest shard's, and the time falls near-linearly with K "+
		"until per-shard leaf reads stop dominating.\n\n", n, seed, shardBenchTarget)
	fmt.Fprintf(&b, "| shards |")
	for _, sel := range shardBenchSelectivities {
		fmt.Fprintf(&b, " sel %g |", sel)
	}
	for _, sel := range shardBenchSelectivities {
		fmt.Fprintf(&b, " speedup @ %g |", sel)
	}
	fmt.Fprintf(&b, "\n|---|")
	for range shardBenchSelectivities {
		fmt.Fprintf(&b, "---|")
	}
	for range shardBenchSelectivities {
		fmt.Fprintf(&b, "---|")
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %d |", r.k)
		for _, d := range r.times {
			fmt.Fprintf(&b, " %v |", d.Round(time.Microsecond))
		}
		for i := range r.times {
			fmt.Fprintf(&b, " %.2fx |", float64(base.times[i])/float64(r.times[i]))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "\nSamples delivered per cell: ")
	for i, sel := range shardBenchSelectivities {
		if i > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "%d @ sel %g", rows[0].got[i], sel)
	}
	fmt.Fprintf(&b, " (capped by the matching set when the predicate is narrow).\n")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "svbench: report written to %s\n", out)
	return nil
}

func generateOn(wb *figures.Workbench, id string) (*figures.Figure, error) {
	switch id {
	case "11":
		return figures.Fig1DOn(wb, "11", 0.0025, 0.04)
	case "12":
		return figures.Fig1DOn(wb, "12", 0.025, 0.04)
	case "13":
		return figures.Fig1DOn(wb, "13", 0.25, 0.04)
	case "14":
		return figures.Fig14On(wb)
	case "15a":
		return figures.Fig15On(wb, "15a", 0.0025)
	case "15b":
		return figures.Fig15On(wb, "15b", 0.025)
	case "16":
		return figures.Fig2DOn(wb, "16", 0.0025, 0.05)
	case "17":
		return figures.Fig2DOn(wb, "17", 0.025, 0.05)
	case "18":
		return figures.Fig2DOn(wb, "18", 0.25, 0.05)
	default:
		return nil, fmt.Errorf("unknown figure %q", id)
	}
}

func printFigure(fig *figures.Figure) {
	fmt.Printf("# Figure %s: %s\n", fig.ID, fig.Title)
	fmt.Printf("# x: %s | y: %s\n", fig.XLabel, fig.YLabel)
	fmt.Printf("x")
	for _, s := range fig.Series {
		fmt.Printf("\t%s", s.Name)
	}
	fmt.Println()
	if len(fig.Series) == 0 {
		return
	}
	for i := range fig.Series[0].X {
		fmt.Printf("%.4f", fig.Series[0].X[i])
		for _, s := range fig.Series {
			fmt.Printf("\t%.6f", s.Y[i])
		}
		fmt.Println()
	}
	fmt.Println()
}
