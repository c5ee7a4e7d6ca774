package core

import (
	"io"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

func testSim() *iosim.Sim {
	return iosim.New(iosim.Model{
		RandomRead:      10 * time.Millisecond,
		SequentialRead:  time.Millisecond,
		RandomWrite:     10 * time.Millisecond,
		SequentialWrite: time.Millisecond,
		PageSize:        4096,
	})
}

func buildTestTree(t *testing.T, sim *iosim.Sim, n int64, p Params, seed uint64) (*Tree, *pagefile.ItemFile) {
	t.Helper()
	rel, err := workload.GenerateRelation(sim, n, workload.Uniform, seed)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Create(pagefile.NewMem(sim), rel, p)
	if err != nil {
		t.Fatal(err)
	}
	return tree, rel
}

func TestAutoHeight(t *testing.T) {
	// 4096-byte pages, 100-byte records: 40 records fit one page.
	cases := []struct {
		n    int64
		want int
	}{
		{0, 1},
		{40, 1},
		{41, 2},
		{81, 2}, // 81*100/2 = 4050 bytes per leaf still fits a page
		{82, 3},
		{40 << 10, 11},
	}
	for _, c := range cases {
		if got := AutoHeight(c.n, 4096); got != c.want {
			t.Errorf("AutoHeight(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestCreateBasics(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 2000, Params{Height: 6}, 1)
	if tree.Count() != 2000 {
		t.Fatalf("Count = %d", tree.Count())
	}
	if tree.Height() != 6 || tree.NumLeaves() != 32 {
		t.Fatalf("h=%d leaves=%d", tree.Height(), tree.NumLeaves())
	}
	if tree.Dims() != 1 {
		t.Fatalf("dims=%d", tree.Dims())
	}
	mu := tree.MeanSectionSize()
	if mu < 5 || mu > 20 { // 2000/(6*32) ~ 10.4
		t.Fatalf("mean section size %v implausible", mu)
	}
}

// TestStructuralInvariants checks the construction-time invariants of
// Section V: every record lies in the region of each of its section's
// ancestors, the per-node counts are exact, and exponentiality holds.
func TestStructuralInvariants(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 4000, Params{Height: 5}, 2)

	// Per-node counts are exact under key comparison with the splits.
	recs, err := workload.CollectMatching(rel, record.FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	cntL := make([]int64, tree.nLeaves)
	cntR := make([]int64, tree.nLeaves)
	for i := range recs {
		node := int64(1)
		for level := 1; level < tree.h; level++ {
			if recs[i].Key > tree.splits[node] {
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

	// Records in each section fall inside the section's region, and all
	// records are present exactly once.
	seen := make(map[uint64]bool, len(recs))
	var total int64
	for leaf := int64(0); leaf < tree.nLeaves; leaf++ {
		sections, err := tree.readLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		for sec, secRecs := range sections {
			box := tree.nodeBox((tree.nLeaves + leaf) >> uint(tree.h-sec-1))
			for i := range secRecs {
				if !box.ContainsRecord(&secRecs[i]) {
					t.Fatalf("leaf %d section %d: record key %d outside region %v", leaf, sec, secRecs[i].Key, box)
				}
				if seen[secRecs[i].Seq] {
					t.Fatalf("record %d stored twice", secRecs[i].Seq)
				}
				seen[secRecs[i].Seq] = true
				total++
			}
		}
	}
	if total != tree.Count() {
		t.Fatalf("tree stores %d records, want %d", total, tree.Count())
	}

	// Exponentiality: the record count of a node is roughly double that of
	// its children (medians guarantee it up to duplicate keys; uniform
	// random keys make it near-exact).
	for i := int64(1); i < tree.nLeaves/2; i++ {
		parent := nodeCount(tree, i)
		if parent < 100 {
			continue // too small for a tight ratio
		}
		for _, child := range []int64{2 * i, 2*i + 1} {
			ratio := float64(parent) / float64(nodeCount(tree, child))
			if ratio < 1.7 || ratio > 2.3 {
				t.Fatalf("node %d/%d count ratio %v, want ~2 (exponentiality)", i, child, ratio)
			}
		}
	}
}

func TestRangesAreHierarchical(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 1000, Params{Height: 5}, 3)
	for leaf := int64(0); leaf < tree.nLeaves; leaf++ {
		heapLeaf := tree.nLeaves + leaf
		prev := record.FullBox(1)
		for level := 1; level <= tree.h; level++ {
			box := tree.nodeBox(heapLeaf >> uint(tree.h-level))
			if !prev.ContainsBox(box) {
				t.Fatalf("leaf %d: level-%d region %v not nested in %v", leaf, level, box, prev)
			}
			prev = box
		}
	}
}

func TestQueryReturnsExactlyMatchingSet(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 3000, Params{Height: 6}, 4)
	for _, q := range []record.Box{
		record.Box1D(0, workload.KeyDomain/7),
		record.Box1D(workload.KeyDomain/3, 2*workload.KeyDomain/3),
		record.FullBox(1),
		record.Box1D(workload.KeyDomain-5, workload.KeyDomain), // likely empty
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
		got := make(map[uint64]bool)
		for {
			rec, err := stream.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !q.ContainsRecord(&rec) {
				t.Fatalf("emitted record key %d outside %v", rec.Key, q)
			}
			if got[rec.Seq] {
				t.Fatalf("record %d emitted twice", rec.Seq)
			}
			got[rec.Seq] = true
		}
		if len(got) != len(wantSet) {
			t.Fatalf("query %v: emitted %d records, want %d", q, len(got), len(wantSet))
		}
		for seq := range wantSet {
			if !got[seq] {
				t.Fatalf("query %v: record %d missing from stream", q, seq)
			}
		}
		// All buckets must have drained exactly.
		if stream.Buffered() != 0 {
			t.Fatalf("query %v: %d records left in buckets after completion", q, stream.Buffered())
		}
		if stream.LeavesRead() != tree.NumLeaves() {
			t.Fatalf("query %v: read %d leaves, want all %d", q, stream.LeavesRead(), tree.NumLeaves())
		}
	}
}

func TestShuttleVisitsEachLeafOnce(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 2000, Params{Height: 5}, 5)
	stream, err := tree.Query(record.Box1D(0, workload.KeyDomain/3))
	if err != nil {
		t.Fatal(err)
	}
	visited := map[int64]bool{}
	for i := int64(0); i < tree.NumLeaves(); i++ {
		stream.shuttle()
		leaf := stream.path[tree.h] - tree.nLeaves
		if visited[leaf] {
			t.Fatalf("leaf %d visited twice", leaf)
		}
		visited[leaf] = true
	}
	if int64(len(visited)) != tree.NumLeaves() {
		t.Fatalf("visited %d leaves", len(visited))
	}
}

// TestShuttleOrderMatchesPaper reproduces the paper's worked example
// (Figure 10): a height-4 tree queried so that the two middle quarters
// overlap; the paper's retrieval order is L3 L5 L4 L6 L1 L7 L2 L8
// (ordinals 2 4 3 5 0 6 1 7).
func TestShuttleOrderMatchesPaper(t *testing.T) {
	sim := testSim()
	// Build a tiny tree with keys 0..99 so splits land at 49/24/74 like the
	// paper's 0-100 example.
	rel := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	w := rel.NewWriter()
	buf := make([]byte, record.Size)
	for i := 0; i < 100; i++ {
		rec := record.Record{Key: int64(i), Seq: uint64(i)}
		rec.Marshal(buf)
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tree, err := Create(pagefile.NewMem(sim), rel, Params{Height: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Query [30,65]: overlaps quarters 2 and 3 only.
	stream, err := tree.Query(record.Box1D(30, 65))
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 4, 3, 5, 0, 6, 1, 7}
	for i, ord := range want {
		stream.shuttle()
		got := stream.path[tree.h] - tree.nLeaves
		if got != ord {
			t.Fatalf("stab %d retrieved leaf %d, want %d (paper order)", i+1, got, ord)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 100, Params{Height: 3}, 6)
	if _, err := tree.Query(record.FullBox(2)); err == nil {
		t.Fatal("2-d query on 1-d tree accepted")
	}
	stream, err := tree.Query(record.Box1D(10, 5)) // empty range
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(); err != io.EOF {
		t.Fatal("empty query should EOF immediately")
	}
}

func TestHeightOneTree(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 30, Params{Height: 1}, 7)
	if tree.NumLeaves() != 1 {
		t.Fatalf("leaves = %d", tree.NumLeaves())
	}
	q := record.Box1D(0, workload.KeyDomain/2)
	want, err := workload.CountMatching(rel, q)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for {
		if _, err := stream.Next(); err != nil {
			break
		}
		got++
	}
	if got != want {
		t.Fatalf("h=1 tree returned %d, want %d", got, want)
	}
}

func TestEmptyTree(t *testing.T) {
	sim := testSim()
	rel := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	tree, err := Create(pagefile.NewMem(sim), rel, Params{})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := tree.Query(record.FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Next(); err != io.EOF {
		t.Fatal("empty tree should EOF")
	}
	est, err := tree.EstimateCount(record.FullBox(1))
	if err != nil || est != 0 {
		t.Fatalf("EstimateCount on empty tree = %v, %v", est, err)
	}
}

func TestCreateValidation(t *testing.T) {
	sim := testSim()
	rel, _ := workload.GenerateRelation(sim, 10, workload.Uniform, 1)
	nonEmpty := pagefile.NewMem(sim)
	nonEmpty.Append(make([]byte, 4096))
	if _, err := Create(nonEmpty, rel, Params{}); err == nil {
		t.Fatal("non-empty destination accepted")
	}
	if _, err := Create(pagefile.NewMem(sim), rel, Params{Dims: 5}); err == nil {
		t.Fatal("invalid dims accepted")
	}
	if _, err := Create(pagefile.NewMem(sim), rel, Params{Height: MaxHeight + 1}); err == nil {
		t.Fatal("excessive height accepted")
	}
	if _, err := Create(pagefile.NewMem(sim), rel, Params{MemPages: 2}); err == nil {
		t.Fatal("tiny memory budget accepted")
	}
	if _, err := Open(pagefile.NewMem(sim)); err == nil {
		t.Fatal("open of empty file accepted")
	}
}

func TestOpenRoundTrip(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 1500, Params{Height: 5}, 8)
	// Reopen from the same backing file.
	tree2, err := Open(tree.f)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Count() != tree.Count() || tree2.Height() != tree.Height() || tree2.Dims() != tree.Dims() {
		t.Fatal("reopened tree header mismatch")
	}
	for i := int64(1); i < tree.nLeaves; i++ {
		if tree2.splits[i] != tree.splits[i] || tree2.cntL[i] != tree.cntL[i] || tree2.cntR[i] != tree.cntR[i] {
			t.Fatalf("split region mismatch at node %d", i)
		}
	}
	q := record.Box1D(0, workload.KeyDomain/2)
	want, err := workload.CountMatching(rel, q)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := tree2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for {
		if _, err := stream.Next(); err != nil {
			break
		}
		got++
	}
	if got != want {
		t.Fatalf("reopened tree returned %d, want %d", got, want)
	}
}

func TestEstimateCount(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 5000, Params{Height: 7}, 9)
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.9} {
		hi := int64(frac * float64(workload.KeyDomain))
		q := record.Box1D(0, hi)
		want, err := workload.CountMatching(rel, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tree.EstimateCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			continue
		}
		rel := got / float64(want)
		if rel < 0.9 || rel > 1.1 {
			t.Fatalf("EstimateCount(%v) = %v, exact %d (ratio %v)", q, got, want, rel)
		}
	}
	// Dimension mismatch rejected.
	if _, err := tree.EstimateCount(record.FullBox(2)); err == nil {
		t.Fatal("2-d estimate on 1-d tree accepted")
	}
}

// nodeCount returns the number of database records in the region of heap
// node idx (exact, from the construction-time counts).
func nodeCount(t *Tree, idx int64) int64 {
	if idx == 1 {
		return t.count
	}
	parent := idx / 2
	if idx%2 == 0 {
		return t.cntL[parent]
	}
	return t.cntR[parent]
}
