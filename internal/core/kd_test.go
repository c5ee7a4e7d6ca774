package core

import (
	"io"
	"testing"

	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// Tests for the multi-dimensional (k-d) ACE Tree of Section VII. The same
// engine drives both cases; these tests pin down the 2-d specifics:
// alternating split dimensions, box-valued section regions, and the k-d
// combine rules.

func TestKDStructuralInvariants(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 3000, Params{Height: 5, Dims: 2}, 21)
	if tree.Dims() != 2 {
		t.Fatalf("dims = %d", tree.Dims())
	}

	// Counts from an independent descent must match, with the split
	// dimension alternating per level.
	recs, err := workload.CollectMatching(rel, record.FullBox(2))
	if err != nil {
		t.Fatal(err)
	}
	cntL := make([]int64, tree.nLeaves)
	cntR := make([]int64, tree.nLeaves)
	for i := range recs {
		node := int64(1)
		for level := 1; level < tree.h; level++ {
			d := (level - 1) % 2
			if recs[i].Coord(d) > tree.splits[node] {
				cntR[node]++
				node = 2*node + 1
			} else {
				cntL[node]++
				node = 2 * node
			}
		}
	}
	for i := int64(1); i < tree.nLeaves; i++ {
		if cntL[i] != tree.cntL[i] || cntR[i] != tree.cntR[i] {
			t.Fatalf("node %d counts (%d,%d), want (%d,%d)", i, tree.cntL[i], tree.cntR[i], cntL[i], cntR[i])
		}
	}

	// Every stored record lies inside the 2-d region of its section.
	for leaf := int64(0); leaf < tree.nLeaves; leaf++ {
		sections, err := tree.readLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		for sec, secRecs := range sections {
			box := tree.nodeBox((tree.nLeaves + leaf) >> uint(tree.h-sec-1))
			for i := range secRecs {
				if !box.ContainsRecord(&secRecs[i]) {
					t.Fatalf("leaf %d section %d: record (%d,%d) outside box %v",
						leaf, sec, secRecs[i].Key, secRecs[i].Amount, box)
				}
			}
		}
	}
}

func TestKDMediansBalance(t *testing.T) {
	// The in-memory k-d phase 1 must produce balanced splits: left and
	// right counts of every sufficiently populated node are within a few
	// percent of each other for uniform data.
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 8000, Params{Height: 6, Dims: 2}, 22)
	for i := int64(1); i < tree.nLeaves; i++ {
		total := tree.cntL[i] + tree.cntR[i]
		if total < 200 {
			continue
		}
		frac := float64(tree.cntL[i]) / float64(total)
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("node %d split fraction %v, medians should balance", i, frac)
		}
	}
}

func TestKDQueryReturnsExactlyMatchingSet(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 2500, Params{Height: 5, Dims: 2}, 23)
	for _, q := range []record.Box{
		record.Box2D(0, workload.KeyDomain/3, 0, workload.KeyDomain/2),
		record.Box2D(workload.KeyDomain/2, workload.KeyDomain, workload.KeyDomain/2, workload.KeyDomain),
		record.FullBox(2),
	} {
		want, err := workload.CollectMatching(rel, q)
		if err != nil {
			t.Fatal(err)
		}
		wantSet := make(map[uint64]bool, len(want))
		for i := range want {
			wantSet[want[i].Seq] = true
		}
		stream, err := tree.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got := map[uint64]bool{}
		for {
			rec, err := stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !q.ContainsRecord(&rec) || got[rec.Seq] {
				t.Fatalf("bad emission for %v", q)
			}
			got[rec.Seq] = true
		}
		if len(got) != len(wantSet) {
			t.Fatalf("query %v: emitted %d, want %d", q, len(got), len(wantSet))
		}
		if stream.Buffered() != 0 {
			t.Fatalf("query %v: buckets not drained", q)
		}
	}
}

func TestKDEstimateCount(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 6000, Params{Height: 7, Dims: 2}, 25)
	q := record.Box2D(0, workload.KeyDomain/2, 0, workload.KeyDomain/2)
	want, err := workload.CountMatching(rel, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.EstimateCount(q)
	if err != nil {
		t.Fatal(err)
	}
	ratio := got / float64(want)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("EstimateCount = %v, exact %d", got, want)
	}
}
