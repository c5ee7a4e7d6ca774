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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sampleview/internal/figures"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run regenerates the figures args asks for, printing their TSV to stdout
// and progress to stderr, and returns the exit status: 2 for a
// command-line mistake, 1 for a failed figure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figList  = fs.String("fig", "all", "comma-separated figure ids ("+strings.Join(figures.IDs(), ",")+") or 'all'")
		n        = fs.Int64("n", 0, "records in the SALE relation (0 = default 1M)")
		queries  = fs.Int("queries", 0, "queries averaged per figure (0 = default 10)")
		seed     = fs.Uint64("seed", 2006, "experiment seed")
		grid     = fs.Int("grid", 0, "x-axis grid points (0 = default 160)")
		pool     = fs.Int("pool", 0, "buffer pool pages for rank-based samplers (0 = auto)")
		pageSize = fs.Int("pagesize", 8192, "disk page size in bytes (smaller pages refine leaf granularity)")
		physical = fs.Bool("physical", false, "charge the raw disk model instead of the scale-matched one")
		parallel = fs.Int("par", 0, "worker goroutines for builds and per-figure queries (0 = 1)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

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
			fmt.Fprintf(stderr, "svbench: unknown figure %q\n", id)
			return 2
		}
		byDims[d] = append(byDims[d], id)
	}
	for dims, ids := range byDims {
		if len(ids) == 0 {
			continue
		}
		start := time.Now()
		fmt.Fprintf(stderr, "svbench: building %d-d workbench (n=%d)...\n", dims, cfg.N)
		wb, err := figures.NewWorkbench(cfg, dims)
		if err != nil {
			fmt.Fprintf(stderr, "svbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "svbench: workbench ready in %v (scan time %v)\n",
			time.Since(start).Round(time.Millisecond), wb.ScanTime)
		for _, id := range ids {
			start := time.Now()
			fig, err := figures.GenerateOn(wb, id)
			if err != nil {
				fmt.Fprintf(stderr, "svbench: figure %s: %v\n", id, err)
				return 1
			}
			printFigure(stdout, fig)
			fmt.Fprintf(stderr, "svbench: figure %s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}

func printFigure(w io.Writer, fig *figures.Figure) {
	fmt.Fprintf(w, "# Figure %s: %s\n", fig.ID, fig.Title)
	fmt.Fprintf(w, "# x: %s | y: %s\n", fig.XLabel, fig.YLabel)
	fmt.Fprintf(w, "x")
	for _, s := range fig.Series {
		fmt.Fprintf(w, "\t%s", s.Name)
	}
	fmt.Fprintln(w)
	if len(fig.Series) == 0 {
		return
	}
	for i := range fig.Series[0].X {
		fmt.Fprintf(w, "%.4f", fig.Series[0].X[i])
		for _, s := range fig.Series {
			fmt.Fprintf(w, "\t%.6f", s.Y[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
