// Command svinspect prints the structure and statistics of a sample view
// file and the delta ladder beside it, and optionally runs a deep integrity
// check of both.
//
// Usage:
//
//	svinspect -view sale.view
//	svinspect -view sale.view -verify
//	svinspect -catalog /data/svcat [-verify]
//
// With -catalog it walks a sharded view catalog's manifest instead: every
// registered view is listed with its shard layout and health, and -verify
// checksum-scrubs every shard of every view, reporting the per-shard fsck
// I/O cost (pages read, simulated time) alongside any damage found.
package main

import (
	"flag"
	"fmt"
	"os"

	"sampleview/internal/catalog"
	"sampleview/internal/iosim"
	"sampleview/internal/lsm"
	"sampleview/internal/shard"
)

func main() {
	var (
		view       = flag.String("view", "", "view file to inspect")
		catalogDir = flag.String("catalog", "", "catalog directory to walk instead of a single view file")
		verify     = flag.Bool("verify", false, "run the deep integrity check (full scan)")
	)
	flag.Parse()
	if (*view == "") == (*catalogDir == "") {
		fmt.Fprintln(os.Stderr, "svinspect: exactly one of -view or -catalog is required")
		flag.Usage()
		os.Exit(2)
	}
	if *catalogDir != "" {
		inspectCatalog(*catalogDir, *verify)
		return
	}

	sim := iosim.New(iosim.DefaultModel())
	part, err := lsm.OpenPart(sim, *view, lsm.PartOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "svinspect: %v\n", err)
		os.Exit(1)
	}
	defer part.Close()
	f, t := part.Main().File(), part.Main()

	fmt.Printf("view:            %s\n", *view)
	fmt.Printf("records:         %d\n", t.Count())
	fmt.Printf("dimensions:      %d\n", t.Dims())
	fmt.Printf("height:          %d (sections per leaf)\n", t.Height())
	fmt.Printf("leaves:          %d\n", t.NumLeaves())
	fmt.Printf("data pages:      %d (%d-byte pages)\n", t.DataPages(), f.PageSize())
	fmt.Printf("mean section mu: %.2f records\n", t.MeanSectionSize())
	fmt.Printf("data bounds:     %v\n", t.DataBounds())

	st := t.LeafStats()
	fmt.Printf("leaf records:    mean %.1f, std %.1f, max %d\n",
		st.MeanRecords, st.StdRecords, st.MaxRecords)
	fmt.Printf("leaf space util: %.1f%% (variable scheme)\n", st.VariableUtilization*100)

	fmt.Printf("section totals:  ")
	for s, n := range t.SectionHistogram() {
		if s > 0 {
			fmt.Printf(" ")
		}
		fmt.Printf("S%d=%d", s+1, n)
	}
	fmt.Println()
	ws := part.WriteStats()
	fmt.Printf("delta ladder:    %d level(s), %d inserts, %d tombstones\n",
		ws.DeltaLevels, ws.DeltaRecords, ws.TombstonesPending)

	if *verify {
		// Pass 1: page checksums. The scan inspects what is actually on
		// disk, mapping each mismatch to the region — and for leaf pages,
		// the leaf and sections — it damages.
		fmt.Printf("checksums...     ")
		faults, err := t.FsckPages()
		if err != nil {
			fmt.Printf("FAILED\n%v\n", err)
			os.Exit(1)
		}
		if len(faults) > 0 {
			fmt.Printf("FAILED (%d corrupt pages)\n", len(faults))
			for _, pf := range faults {
				fmt.Printf("  %s\n", pf)
			}
			os.Exit(1)
		}
		fmt.Printf("ok (%d pages verified)\n", f.NumPages())

		// Pass 2: structural invariants of the base tree (its directory's
		// prefix checksums included), then of every delta level.
		fmt.Printf("verifying...     ")
		before, t0 := sim.Counters(), sim.Now()
		if err := part.Verify(); err != nil {
			fmt.Printf("FAILED\n%v\n", err)
			os.Exit(1)
		}
		after := sim.Counters()
		fmt.Printf("ok (all invariants hold)\n")
		fmt.Printf("verify cost:     %d pages read (%d sequential, %d random), %v simulated\n",
			after.Reads()-before.Reads(),
			after.SequentialReads-before.SequentialReads,
			after.RandomReads-before.RandomReads,
			sim.Now()-t0)
	}
}

// inspectCatalog walks a catalog's manifest, printing each registered
// view's layout and health; with verify it checksum-scrubs every shard and
// reports the per-shard fsck I/O cost. Exits non-zero on detected damage.
func inspectCatalog(dir string, verify bool) {
	cat, err := catalog.New(dir, shard.Options{}, catalog.Policy{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "svinspect: %v\n", err)
		os.Exit(1)
	}
	defer cat.Close()

	infos := cat.List()
	fmt.Printf("catalog:         %s (%d views)\n", dir, len(infos))
	damaged := false
	for _, info := range infos {
		fmt.Printf("\nview %s\n", info.Name)
		fmt.Printf("  shards:        %d (%s partitioning)\n", info.K, info.Partition)
		fmt.Printf("  records:       %d (%d appends pending)\n", info.Count, info.PendingAppends)
		fmt.Printf("  health:        %s\n", info.Health)
		w := info.Write
		fmt.Printf("  write path:    %d buffered + %d tombstones in memview, %d delta records across %d level(s), %d tombstones pending\n",
			w.MemViewRecords, w.MemViewTombstones, w.DeltaRecords, info.DeltaLevels, w.TombstonesPending)
		fmt.Printf("  maintenance:   %d flushes, %d compactions\n", w.Flushes, w.Compactions)
		v, ok := cat.Get(info.Name)
		if !ok {
			continue
		}
		for i, n := range v.ShardCounts() {
			fmt.Printf("  shard %-4d     %d records\n", i, n)
		}
		if !verify {
			continue
		}
		reports, err := v.Fsck()
		if err != nil {
			fmt.Fprintf(os.Stderr, "svinspect: %v\n", err)
			os.Exit(1)
		}
		for _, r := range reports {
			verdict := "ok"
			if len(r.Faults) > 0 {
				verdict = fmt.Sprintf("%d CORRUPT PAGES", len(r.Faults))
				damaged = true
			}
			fmt.Printf("  fsck shard %-3d %s (%d pages read, %v simulated)\n",
				r.Shard, verdict, r.Reads, r.Cost)
			for _, pf := range r.Faults {
				fmt.Printf("    %s\n", pf)
			}
		}
	}
	if damaged {
		os.Exit(1)
	}
}
