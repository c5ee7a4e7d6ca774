package rtree

import (
	"io"
	"math/rand/v2"
	"path/filepath"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/stats"
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

func buildTestTree(t *testing.T, sim *iosim.Sim, n int64, seed uint64, poolPages int) (*Tree, *pagefile.ItemFile) {
	t.Helper()
	rel, err := workload.GenerateRelation(sim, n, workload.Uniform, seed)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(pagefile.NewMem(sim), rel, pagefile.NewPool(poolPages), 16)
	if err != nil {
		t.Fatal(err)
	}
	return tree, rel
}

// collectAll walks every internal node and leaf, returning all records and
// verifying that every entry's MBR bounds its subtree and that counts sum.
func collectAll(t *testing.T, tree *Tree, pg int64, lvl int) []record.Record {
	t.Helper()
	entries, gotLvl, err := tree.readNode(pg)
	if err != nil {
		t.Fatal(err)
	}
	if gotLvl != lvl {
		t.Fatalf("node at page %d has level %d, want %d", pg, gotLvl, lvl)
	}
	var out []record.Record
	for _, e := range entries {
		var sub []record.Record
		if lvl == 1 {
			buf := make([]byte, tree.f.PageSize())
			if err := tree.pool.ReadInto(tree.f, e.child, buf); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < e.count; i++ {
				var rec record.Record
				rec.Unmarshal(buf[i*record.Size : (i+1)*record.Size])
				sub = append(sub, rec)
			}
		} else {
			sub = collectAll(t, tree, e.child, lvl-1)
		}
		if int64(len(sub)) != e.count {
			t.Fatalf("entry count %d but subtree holds %d records", e.count, len(sub))
		}
		for i := range sub {
			if !e.rect.box().ContainsRecord(&sub[i]) {
				t.Fatalf("record (%d,%d) outside its entry MBR %v", sub[i].Key, sub[i].Amount, e.rect.box())
			}
		}
		out = append(out, sub...)
	}
	return out
}

func TestBuildStructureInvariants(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 3000, 1, 4096)
	if tree.Count() != 3000 {
		t.Fatalf("Count = %d", tree.Count())
	}
	all := collectAll(t, tree, tree.rootPage, tree.height)
	if int64(len(all)) != rel.Count() {
		t.Fatalf("tree holds %d records, relation %d", len(all), rel.Count())
	}
	seen := map[uint64]bool{}
	for i := range all {
		if seen[all[i].Seq] {
			t.Fatalf("record %d appears twice in the tree", all[i].Seq)
		}
		seen[all[i].Seq] = true
	}
}

func TestSamplerMatchesPredicate(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 4000, 2, 4096)
	q := record.Box2D(0, workload.KeyDomain/2, 0, workload.KeyDomain/2)
	want, err := workload.CountMatching(rel, q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tree.NewSampler(q, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := int64(0); i < want/2; i++ {
		rec, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !q.ContainsRecord(&rec) {
			t.Fatalf("sampled record (%d,%d) outside query", rec.Key, rec.Amount)
		}
		if seen[rec.Seq] {
			t.Fatal("sampler repeated a record")
		}
		seen[rec.Seq] = true
	}
	if s.Returned() != want/2 {
		t.Fatalf("Returned = %d", s.Returned())
	}
}

func TestSamplerExhaustsSmallPredicate(t *testing.T) {
	sim := testSim()
	q := record.Box2D(0, workload.KeyDomain/8, 0, workload.KeyDomain/8)
	// Search seeds for a relation the predicate matches something of: a miss
	// moves on, it does not skip.
	var tree *Tree
	var want int64
	for seed := uint64(3); want == 0; seed++ {
		if seed == 3+50 {
			t.Fatal("no relation in 50 seeds has a record inside the predicate")
		}
		var rel *pagefile.ItemFile
		tree, rel = buildTestTree(t, sim, 2000, seed, 4096)
		var err error
		if want, err = workload.CountMatching(rel, q); err != nil {
			t.Fatal(err)
		}
	}
	s, err := tree.NewSampler(q, rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != want {
		t.Fatalf("sampler returned %d records before exhaustion, want %d", got, want)
	}
}

func TestSamplerUniformity(t *testing.T) {
	// Verify exact uniformity of the corrected draw: run many independent
	// first-draws and chi-square the frequency of each matching record.
	sim := testSim()
	q := record.Box2D(0, workload.KeyDomain/2, 0, workload.KeyDomain/2)
	// Search seeds for a relation with enough matches to chi-square: a miss
	// moves on, it does not skip.
	var tree *Tree
	var matching []record.Record
	for seed := uint64(4); len(matching) < 20; seed++ {
		if seed == 4+50 {
			t.Fatal("no relation in 50 seeds has 20 records inside the predicate")
		}
		var rel *pagefile.ItemFile
		tree, rel = buildTestTree(t, sim, 600, seed, 4096)
		var err error
		if matching, err = workload.CollectMatching(rel, q); err != nil {
			t.Fatal(err)
		}
	}
	index := map[uint64]int{}
	for i := range matching {
		index[matching[i].Seq] = i
	}
	counts := make([]int64, len(matching))
	rng := rand.New(rand.NewPCG(3, 3))
	trials := 40 * len(matching)
	for i := 0; i < trials; i++ {
		s, err := tree.NewSampler(q, rng)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		j, ok := index[rec.Seq]
		if !ok {
			t.Fatal("sampled record not in matching set")
		}
		counts[j]++
	}
	p, err := stats.ChiSquareUniformPValue(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("R-tree sampler not uniform: p=%v", p)
	}
}

func TestSamplerValidation(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 100, 5, 64)
	if _, err := tree.NewSampler(record.Box1D(0, 10), rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Fatal("1-d query accepted by 2-d sampler")
	}
	if _, err := tree.NewSampler(record.FullBox(2), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestSamplerDisjointQuery(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 500, 6, 64)
	s, err := tree.NewSampler(record.Box2D(-100, -1, -100, -1), rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	s.SetMaxFutile(200)
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("disjoint query should exhaust immediately, got %v", err)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sim := testSim()
	rel, err := workload.GenerateRelation(sim, 1500, workload.Uniform, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pagefile.Create(sim, filepath.Join(dir, "rtree.sv"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(f, rel, pagefile.NewPool(256), 8)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	f2, err := pagefile.Open(testSim(), filepath.Join(dir, "rtree.sv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	tree2, err := Open(f2, pagefile.NewPool(256))
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Count() != tree.Count() || tree2.Height() != tree.Height() {
		t.Fatalf("reopened tree mismatch")
	}
	s, err := tree2.NewSampler(record.FullBox(2), rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyTree(t *testing.T) {
	sim := testSim()
	rel := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	tree, err := Build(pagefile.NewMem(sim), rel, pagefile.NewPool(4), 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tree.NewSampler(record.FullBox(2), rand.New(rand.NewPCG(6, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatal("empty tree sampler should EOF")
	}
}

func TestBuildValidation(t *testing.T) {
	sim := testSim()
	rel, _ := workload.GenerateRelation(sim, 10, workload.Uniform, 1)
	nonEmpty := pagefile.NewMem(sim)
	nonEmpty.Append(make([]byte, 4096))
	if _, err := Build(nonEmpty, rel, pagefile.NewPool(4), 8); err == nil {
		t.Fatal("non-empty destination accepted")
	}
	if _, err := Open(pagefile.NewMem(sim), pagefile.NewPool(4)); err == nil {
		t.Fatal("open of empty file accepted")
	}
}
