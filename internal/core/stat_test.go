package core

import (
	"io"
	"testing"

	"sampleview/internal/record"
	"sampleview/internal/stats"
	"sampleview/internal/workload"
)

// The ACE Tree's defining guarantee is that the records emitted so far are
// a uniform random sample of the matching records. The randomness lives in
// construction (section and leaf draws); these tests check the draws
// themselves. The streams are held to the guarantee by the root package's
// TestPrefixOracle, at every stab's end.

func TestSectionAssignmentUniform(t *testing.T) {
	// Construction property: section numbers are uniform over 1..h.
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 4000, Params{Height: 5}, 79)
	counts := make([]int64, tree.Height())
	for leaf := int64(0); leaf < tree.NumLeaves(); leaf++ {
		for s, c := range tree.leaves[leaf].secCounts {
			counts[s] += int64(c)
		}
	}
	p, err := stats.ChiSquareUniformPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("section assignment not uniform: p=%v counts=%v", p, counts)
	}
}

func TestLeafAssignmentUniformWithinSection(t *testing.T) {
	// Within section 1 (the full-domain section), records spread uniformly
	// over all leaves.
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 8000, Params{Height: 5}, 80)
	counts := make([]int64, tree.NumLeaves())
	for leaf := int64(0); leaf < tree.NumLeaves(); leaf++ {
		counts[leaf] = int64(tree.leaves[leaf].secCounts[0])
	}
	p, err := stats.ChiSquareUniformPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("section-1 leaf assignment not uniform: p=%v", p)
	}
}

func TestFastFirstBeatsProportionalPacing(t *testing.T) {
	// "Fast first": for a selective query, after reading a small fraction
	// of the leaves the stream must have emitted a far larger fraction of
	// the matching records than the proportional pace a scan achieves.
	// (For very wide queries ACE pacing approaches proportional, which is
	// exactly the paper's Figure 13 regime, so selectivity matters here.)
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 20000, Params{Height: 10}, 81)
	domain := float64(workload.KeyDomain)
	width := int64(0.025 * domain)
	lo := workload.KeyDomain/2 - width/2
	q := record.Box1D(lo, lo+width-1)
	total, err := workload.CountMatching(rel, q)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	eighth := tree.NumLeaves() / 8
	for i := int64(0); i < eighth; i++ {
		if _, err := stream.NextLeaf(); err != nil {
			t.Fatal(err)
		}
	}
	leafFrac := 1.0 / 8
	got := float64(stream.Emitted()) / float64(total)
	if got < 2*leafFrac {
		t.Fatalf("after 1/8 of leaves only %.1f%% of matches emitted; expected fast-first >> %.1f%%",
			got*100, leafFrac*100)
	}
}

func TestBufferedDrainsToZero(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 3000, Params{Height: 6}, 82)
	q := record.Box1D(workload.KeyDomain/3, workload.KeyDomain/2)
	stream, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for {
		if _, err := stream.NextLeaf(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if stream.Buffered() > peak {
			peak = stream.Buffered()
		}
	}
	if stream.Buffered() != 0 {
		t.Fatalf("%d records still buffered after completion", stream.Buffered())
	}
	if peak == 0 {
		t.Fatal("expected some buffering for a partially overlapping query")
	}
}

// TestCombinabilityAcrossTwoLeaves mirrors the paper's Section IV-A
// example: two leaves whose section-2 regions both cover the query can be
// filtered and unioned, and the result is exactly the union of two
// independent draws.
func TestCombinabilityAcrossTwoLeaves(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 2000, Params{Height: 4}, 83)
	// Query inside the left half so every left-subtree leaf's section 2
	// covers it.
	q := record.Box1D(0, tree.splits[1]/2)
	stream, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	batch1, err := stream.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	batch2, err := stream.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, r := range batch1 {
		seen[r.Seq] = true
	}
	for _, r := range batch2 {
		if seen[r.Seq] {
			t.Fatal("two leaves contributed the same record")
		}
	}
}
