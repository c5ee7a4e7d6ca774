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
