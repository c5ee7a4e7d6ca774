// Command svbench regenerates the figures of the paper's evaluation and
// prints each series as TSV.
//
// Usage:
//
//	svbench -fig all                # every figure at default scale
//	svbench -fig 11,12,13 -n 2000000
//	svbench -fig 16 -n 4000000      # 2-d figures discriminate at larger N
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
	"strings"
	"time"

	"sampleview/internal/figures"
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
	)
	flag.Parse()

	cfg := figures.DefaultConfig()
	cfg.Physical = *physical
	cfg.Parallel = *parallel
	if *pageSize > 0 {
		cfg = cfg.WithPageSize(*pageSize)
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
	var byDims [3][]string
	for _, id := range ids {
		d := figures.FigureDims(id)
		if d == 0 {
			fmt.Fprintf(os.Stderr, "svbench: unknown figure %q\n", id)
			os.Exit(2)
		}
		byDims[d] = append(byDims[d], id)
	}
	for dims, ids := range byDims {
		if len(ids) == 0 {
			continue
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
			fig, err := figures.GenerateOn(wb, id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "svbench: figure %s: %v\n", id, err)
				os.Exit(1)
			}
			printFigure(fig)
			fmt.Fprintf(os.Stderr, "svbench: figure %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
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
