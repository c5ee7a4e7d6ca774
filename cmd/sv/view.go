package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sampleview"
	"sampleview/internal/aqp"
	"sampleview/internal/catalog"
	"sampleview/internal/iosim"
	"sampleview/internal/lsm"
	"sampleview/internal/server"
	"sampleview/internal/shard"
	"sampleview/internal/sqlish"
	"sampleview/internal/workload"
)

// build builds a view file from the synthetic SALE generator or from a CSV
// of "key,amount[,seq]" lines (records are numbered in input order unless
// seq is given). Malformed CSV lines are reported and skipped; a CSV that
// cannot be read to its end fails the build and leaves no view behind.
func build(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("build", stderr)
	var (
		out    = fs.String("out", "", "output view file (required)")
		n      = fs.Int64("n", 100_000, "records to generate (ignored with -csv)")
		dist   = fs.String("dist", "uniform", "key distribution: uniform, zipf, clustered")
		csvIn  = fs.String("csv", "", "read records from a CSV file instead of generating")
		dims   = fs.Int("dims", 1, "indexed dimensions (1 = Key, 2 = Key and Amount)")
		height = fs.Int("height", 0, "ACE tree height (0 = auto)")
		seed   = fs.Uint64("seed", 1, "generation and construction seed")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return misuse(fs, "-out is required")
	}

	var src sampleview.Source
	var readErr error // what ended the CSV early, if anything did
	if *csvIn != "" {
		f, err := os.Open(*csvIn)
		if err != nil {
			return err
		}
		defer f.Close()
		r := workload.NewCSVReader(f)
		r.Err = func(line int64, msg string) {
			fmt.Fprintf(stderr, "sv build: %s:%d: %s\n", *csvIn, line, msg)
		}
		src = func() (sampleview.Record, bool) {
			rec, err := r.Next()
			if err != nil && err != io.EOF {
				readErr = fmt.Errorf("%s: %w", *csvIn, err)
			}
			return rec, err == nil
		}
	} else {
		d, err := workload.ParseDistribution(*dist)
		if err != nil {
			return fail(2, err)
		}
		gen := workload.NewGenerator(d, *seed)
		remaining := *n
		src = func() (sampleview.Record, bool) {
			if remaining == 0 {
				return sampleview.Record{}, false
			}
			remaining--
			return gen.Next(), true
		}
	}

	start := time.Now()
	v, err := sampleview.Create(*out, src, sampleview.Options{
		Dims:   *dims,
		Height: *height,
		Seed:   *seed,
	})
	if err != nil {
		return err
	}
	if readErr != nil {
		v.Close()
		os.Remove(*out)
		return readErr
	}
	defer v.Close()
	st := v.Stats()
	fmt.Fprintf(stdout, "built %s: %d records, %d dims, height %d, in %v\n",
		*out, v.Count(), v.Dims(), v.Height(), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "construction I/O: %d reads, %d writes (simulated disk time %s)\n",
		st.Counters.Reads(), st.Counters.Writes(), st.SimTime)
	return nil
}

// sample prints an online random sample of a range predicate, a record a
// line, and the sample's own I/O cost on stderr.
func sample(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("sample", stderr)
	var (
		view  = fs.String("view", "", "view file to open (required)")
		lo    = fs.Int64("lo", math.MinInt64, "lower bound on Key")
		hi    = fs.Int64("hi", math.MaxInt64, "upper bound on Key")
		alo   = fs.Int64("alo", math.MinInt64, "lower bound on Amount (2-d views)")
		ahi   = fs.Int64("ahi", math.MaxInt64, "upper bound on Amount (2-d views)")
		count = fs.Int("count", 10, "samples to print (0 = drain the predicate)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *view == "" {
		return misuse(fs, "-view is required")
	}
	v, err := sampleview.Open(*view, sampleview.Options{})
	if err != nil {
		return err
	}
	defer v.Close()

	var q sampleview.Box
	if v.Dims() == 2 {
		q = sampleview.Box2D(*lo, *hi, *alo, *ahi)
	} else {
		q = sampleview.Box1D(*lo, *hi)
	}
	stream, err := v.Query(q)
	if err != nil {
		return err
	}
	defer stream.Close()

	printed := 0
	for *count == 0 || printed < *count {
		rec, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "key=%d amount=%d seq=%d\n", rec.Key, rec.Amount, rec.Seq)
		printed++
	}
	st := stream.Stats() // the sample's own I/O, not the view's since Open
	fmt.Fprintf(stderr, "%d samples; I/O: %d random + %d sequential reads; simulated time %s\n",
		printed, st.Counters.RandomReads, st.Counters.SequentialReads, st.SimTime)
	return nil
}

// query runs approximate aggregate SQL against a view, printing running
// estimates with confidence intervals as the online sample grows (online
// aggregation, the paper's motivating application). The ERROR clause (a
// percentage) stops once every interval is that tight; without it the
// answers are exact. With -connect, -view names a view served by sv serve
// or sv route.
func query(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("query", stderr)
	var (
		view    = fs.String("view", "", "view file to query, or served view name with -connect (required)")
		connect = fs.String("connect", "", "query a remote sv serve at host:port instead of a local file")
		quiet   = fs.Bool("quiet", false, "suppress progress snapshots")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *view == "" || fs.NArg() != 1 {
		fmt.Fprintln(stderr, `usage: sv query [-connect host:port] -view file.view "SELECT ..."`)
		return fail(2, nil)
	}
	st, err := sqlish.Parse(fs.Arg(0))
	if err != nil {
		return fail(2, err)
	}

	// Resolve the sampling source: a local view file or a served view.
	var src aqp.Source
	var dims int
	if *connect != "" {
		cl, err := server.Dial(*connect)
		if err != nil {
			return err
		}
		defer cl.Close()
		rv, err := cl.OpenView(*view)
		if err != nil {
			return err
		}
		src, dims = rv, rv.Dims()
	} else {
		v, err := sampleview.Open(*view, sampleview.Options{})
		if err != nil {
			return err
		}
		defer v.Close()
		src, dims = v.AQPSource(), v.Dims()
	}
	if st.Dims > dims {
		return fail(2, fmt.Errorf("query constrains %d dimensions but the view indexes %d", st.Dims, dims))
	}
	// A 1-d query over a 2-d view needs a 2-d predicate.
	if st.Dims == 1 && dims == 2 {
		st.Query.Predicate = sampleview.Box2D(
			st.Query.Predicate.Dim(0).Lo, st.Query.Predicate.Dim(0).Hi,
			sampleview.FullBox(2).Dim(1).Lo, sampleview.FullBox(2).Dim(1).Hi,
		)
	}

	q := st.Query
	if !*quiet {
		q.Progress = func(r *sampleview.AggResult) bool {
			fmt.Fprintf(stdout, "-- after %d samples\n", r.Samples)
			printResult(stdout, r)
			return true
		}
		q.ProgressEvery = 5000
	}
	res, err := aqp.Run(src, q)
	if err != nil {
		return err
	}
	if res.Exact {
		fmt.Fprintf(stdout, "== final (exact: predicate exhausted after %d records)\n", res.Samples)
	} else {
		fmt.Fprintf(stdout, "== final (approximate, %d samples)\n", res.Samples)
	}
	printResult(stdout, res)
	return nil
}

func printResult(w io.Writer, r *sampleview.AggResult) {
	for _, g := range r.Groups {
		var cols []string
		for _, e := range g.Estimates {
			col := fmt.Sprintf("%v=%.4g", e.Agg.Kind, e.Value)
			if e.HasCI && e.Lo != e.Hi {
				col += fmt.Sprintf(" ci[%.4g, %.4g]", e.Lo, e.Hi)
			} else if !e.HasCI {
				col += " (observed)"
			}
			cols = append(cols, col)
		}
		if g.Key != "" {
			fmt.Fprintf(w, "  %-24s %s\n", g.Key, strings.Join(cols, "  "))
		} else {
			fmt.Fprintf(w, "  %s\n", strings.Join(cols, "  "))
		}
	}
}

// inspect prints the structure of a view file and the delta ladder beside
// it, or (-catalog) of every view in a catalog; -verify also checks their
// integrity, and damage found is exit status 1.
func inspect(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("inspect", stderr)
	var (
		view       = fs.String("view", "", "view file to inspect")
		catalogDir = fs.String("catalog", "", "catalog directory to walk instead of a single view file")
		verify     = fs.Bool("verify", false, "run the deep integrity check (full scan)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if (*view == "") == (*catalogDir == "") {
		return misuse(fs, "exactly one of -view or -catalog is required")
	}
	if *catalogDir != "" {
		return inspectCatalog(stdout, *catalogDir, *verify)
	}

	sim := iosim.New(iosim.DefaultModel())
	part, err := lsm.OpenPart(sim, *view, lsm.PartOptions{})
	if err != nil {
		return err
	}
	defer part.Close()
	f, t := part.Main().File(), part.Main()

	fmt.Fprintf(stdout, "view:            %s\n", *view)
	fmt.Fprintf(stdout, "records:         %d\n", t.Count())
	fmt.Fprintf(stdout, "dimensions:      %d\n", t.Dims())
	fmt.Fprintf(stdout, "height:          %d (sections per leaf)\n", t.Height())
	fmt.Fprintf(stdout, "leaves:          %d\n", t.NumLeaves())
	fmt.Fprintf(stdout, "data pages:      %d (%d-byte pages)\n", t.DataPages(), f.PageSize())
	fmt.Fprintf(stdout, "mean section mu: %.2f records\n", t.MeanSectionSize())
	fmt.Fprintf(stdout, "data bounds:     %v\n", t.DataBounds())

	st := t.LeafStats()
	fmt.Fprintf(stdout, "leaf records:    mean %.1f, std %.1f, max %d\n",
		st.MeanRecords, st.StdRecords, st.MaxRecords)
	fmt.Fprintf(stdout, "leaf space util: %.1f%% (variable scheme)\n", st.VariableUtilization*100)

	var sections []string
	for s, n := range t.SectionHistogram() {
		sections = append(sections, fmt.Sprintf("S%d=%d", s+1, n))
	}
	fmt.Fprintf(stdout, "section totals:  %s\n", strings.Join(sections, " "))
	ws := part.WriteStats()
	fmt.Fprintf(stdout, "delta ladder:    %d level(s), %d inserts, %d tombstones\n",
		ws.DeltaLevels, ws.DeltaRecords, ws.TombstonesPending)

	if !*verify {
		return nil
	}
	// Pass 1: page checksums. The scan inspects what is actually on disk,
	// mapping each mismatch to the region — and for leaf pages, the leaf
	// and sections — it damages.
	fmt.Fprintf(stdout, "checksums...     ")
	faults, err := t.FsckPages()
	if err != nil {
		fmt.Fprintf(stdout, "FAILED\n%v\n", err)
		return fail(1, nil)
	}
	if len(faults) > 0 {
		fmt.Fprintf(stdout, "FAILED (%d corrupt pages)\n", len(faults))
		for _, pf := range faults {
			fmt.Fprintf(stdout, "  %s\n", pf)
		}
		return fail(1, nil)
	}
	fmt.Fprintf(stdout, "ok (%d pages verified)\n", f.NumPages())

	// Pass 2: structural invariants of the base tree (its directory's
	// prefix checksums included), then of every delta level.
	fmt.Fprintf(stdout, "verifying...     ")
	before, t0 := sim.Counters(), sim.Now()
	if err := part.Verify(); err != nil {
		fmt.Fprintf(stdout, "FAILED\n%v\n", err)
		return fail(1, nil)
	}
	after := sim.Counters()
	fmt.Fprintf(stdout, "ok (all invariants hold)\n")
	fmt.Fprintf(stdout, "verify cost:     %d pages read (%d sequential, %d random), %v simulated\n",
		after.Reads()-before.Reads(),
		after.SequentialReads-before.SequentialReads,
		after.RandomReads-before.RandomReads,
		sim.Now()-t0)
	return nil
}

// inspectCatalog prints each view registered in the catalog at dir; with
// verify it checksum-scrubs every shard and reports its fsck I/O cost. It
// never creates a catalog: a directory holding no manifest is an error.
func inspectCatalog(stdout io.Writer, dir string, verify bool) error {
	if _, err := os.Stat(filepath.Join(dir, catalog.ManifestName)); err != nil {
		return fmt.Errorf("no catalog at %s: %w", dir, err)
	}
	cat, err := catalog.New(dir, shard.Options{}, catalog.Policy{})
	if err != nil {
		return err
	}
	defer cat.Close()

	infos := cat.List()
	fmt.Fprintf(stdout, "catalog:         %s (%d views)\n", dir, len(infos))
	damaged := false
	for _, info := range infos {
		fmt.Fprintf(stdout, "\nview %s\n", info.Name)
		fmt.Fprintf(stdout, "  shards:        %d (%s partitioning)\n", info.K, info.Partition)
		fmt.Fprintf(stdout, "  records:       %d (%d appends pending)\n", info.Count, info.PendingAppends)
		fmt.Fprintf(stdout, "  health:        %s\n", info.Health)
		w := info.Write
		fmt.Fprintf(stdout, "  write path:    %d buffered + %d tombstones in memview, %d delta records across %d level(s), %d tombstones pending\n",
			w.MemViewRecords, w.MemViewTombstones, w.DeltaRecords, info.DeltaLevels, w.TombstonesPending)
		fmt.Fprintf(stdout, "  maintenance:   %d flushes, %d compactions\n", w.Flushes, w.Compactions)
		v, ok := cat.Get(info.Name)
		if !ok {
			continue
		}
		for i, n := range v.ShardCounts() {
			fmt.Fprintf(stdout, "  shard %-4d     %d records\n", i, n)
		}
		if !verify {
			continue
		}
		reports, err := v.Fsck()
		if err != nil {
			return err
		}
		for _, r := range reports {
			verdict := "ok"
			if len(r.Faults) > 0 {
				verdict = fmt.Sprintf("%d CORRUPT PAGES", len(r.Faults))
				damaged = true
			}
			fmt.Fprintf(stdout, "  fsck shard %-3d %s (%d pages read, %v simulated)\n",
				r.Shard, verdict, r.Reads, r.Cost)
			for _, pf := range r.Faults {
				fmt.Fprintf(stdout, "    %s\n", pf)
			}
		}
	}
	if damaged {
		return fail(1, nil)
	}
	return nil
}
