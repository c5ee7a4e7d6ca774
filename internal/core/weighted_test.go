package core

import (
	"io"
	"testing"

	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// The weighted shuttle changes only the order in which leaves are
// retrieved; the emission rule is untouched, so every guarantee must hold
// verbatim. These tests mirror the core guarantees under the option.

func TestWeightedShuttleExactSet(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 3000, Params{Height: 6}, 55)
	for _, q := range []record.Box{
		record.Box1D(workload.KeyDomain/3, workload.KeyDomain/3+workload.KeyDomain/20),
		record.Box1D(0, workload.KeyDomain/2),
		record.FullBox(1),
	} {
		want, err := workload.CountMatching(rel, q)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := tree.QueryWithOptions(q, StreamOptions{WeightedShuttle: true})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for {
			rec, err := stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !q.ContainsRecord(&rec) || seen[rec.Seq] {
				t.Fatalf("bad emission under weighted shuttle for %v", q)
			}
			seen[rec.Seq] = true
		}
		if int64(len(seen)) != want {
			t.Fatalf("weighted shuttle: %d records, want %d", len(seen), want)
		}
		if stream.Buffered() != 0 {
			t.Fatal("buckets not drained under weighted shuttle")
		}
		if stream.LeavesRead() != tree.NumLeaves() {
			t.Fatal("weighted shuttle skipped leaves")
		}
	}
}

func TestWeightedShuttleThroughputAtLeastToggling(t *testing.T) {
	// For a mid-width query the weighted shuttle should emit at least as
	// much as the toggling shuttle after reading a fixed number of leaves.
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 30_000, Params{Height: 10}, 57)
	domain := float64(workload.KeyDomain)
	width := int64(0.025 * domain)
	lo := workload.KeyDomain/3 - width/2
	q := record.Box1D(lo, lo+width-1)

	run := func(weighted bool) int64 {
		stream, err := tree.QueryWithOptions(q, StreamOptions{WeightedShuttle: weighted})
		if err != nil {
			t.Fatal(err)
		}
		for stream.LeavesRead() < tree.NumLeaves()/8 {
			if _, err := stream.NextLeaf(); err != nil {
				t.Fatal(err)
			}
		}
		return stream.Emitted()
	}
	toggling := run(false)
	weighted := run(true)
	if weighted < toggling/2 {
		t.Fatalf("weighted shuttle emitted %d, toggling %d; should not collapse", weighted, toggling)
	}
}
