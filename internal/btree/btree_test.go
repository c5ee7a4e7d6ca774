package btree

import (
	"io"
	"math/rand/v2"
	"path/filepath"
	"sort"
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

// sortedKeys returns all relation keys in ascending order.
func sortedKeys(t *testing.T, rel *pagefile.ItemFile) []int64 {
	t.Helper()
	var keys []int64
	r := rel.NewReader()
	var rec record.Record
	for {
		item, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rec.Unmarshal(item)
		keys = append(keys, rec.Key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func TestBuildBasics(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 5000, 1, 64)
	if tree.Count() != 5000 {
		t.Fatalf("Count = %d", tree.Count())
	}
	if tree.Height() < 1 {
		t.Fatalf("Height = %d", tree.Height())
	}
}

func TestRecordByRankMatchesSortedOrder(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 3000, 2, 256)
	keys := sortedKeys(t, rel)
	for _, rank := range []int64{0, 1, 40, 41, 1500, 2998, 2999} {
		rec, err := tree.RecordByRank(rank)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Key != keys[rank] {
			t.Fatalf("rank %d: key %d, want %d", rank, rec.Key, keys[rank])
		}
	}
	if _, err := tree.RecordByRank(-1); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := tree.RecordByRank(3000); err == nil {
		t.Fatal("rank past end accepted")
	}
}

func TestRankGEMatchesLinearScan(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 2000, 3, 256)
	keys := sortedKeys(t, rel)
	probes := []int64{-1, 0, keys[0], keys[1], keys[999], keys[1999], workload.KeyDomain, 1 << 40}
	for _, k := range probes {
		want := int64(sort.Search(len(keys), func(i int) bool { return keys[i] >= k }))
		got, err := tree.RankGE(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("RankGE(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestRankGEWithDuplicates(t *testing.T) {
	// Hand-build a relation with long runs of duplicate keys that span page
	// boundaries (40 records per 4096-byte page).
	sim := testSim()
	rel := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	w := rel.NewWriter()
	buf := make([]byte, record.Size)
	var keys []int64
	for i := 0; i < 1000; i++ {
		rec := record.Record{Key: int64(i / 100), Seq: uint64(i)} // 100 copies of each key
		keys = append(keys, rec.Key)
		rec.Marshal(buf)
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tree, err := Build(pagefile.NewMem(sim), rel, pagefile.NewPool(256), 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(-1); k <= 11; k++ {
		want := int64(sort.Search(len(keys), func(i int) bool { return keys[i] >= k }))
		got, err := tree.RankGE(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("RankGE(%d) = %d, want %d", k, got, want)
		}
	}
	// A range covering exactly one duplicate run.
	r1, r2, err := tree.RankRange(record.Range{Lo: 5, Hi: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != 500 || r2 != 599 {
		t.Fatalf("RankRange(5,5) = [%d,%d], want [500,599]", r1, r2)
	}
}

func TestRankRangeEmptyAndFull(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 1000, 4, 256)
	keys := sortedKeys(t, rel)
	// Full domain.
	r1, r2, err := tree.RankRange(record.FullRange())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != 0 || r2 != 999 {
		t.Fatalf("full range ranks [%d,%d]", r1, r2)
	}
	// A range between two adjacent keys matches nothing.
	for i := 0; i+1 < len(keys); i++ {
		if keys[i+1] > keys[i]+1 {
			r1, r2, err = tree.RankRange(record.Range{Lo: keys[i] + 1, Hi: keys[i+1] - 1})
			if err != nil {
				t.Fatal(err)
			}
			if r2 >= r1 {
				t.Fatalf("gap range matched ranks [%d,%d]", r1, r2)
			}
			break
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sim := testSim()
	rel, err := workload.GenerateRelation(sim, 2000, workload.Uniform, 5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pagefile.Create(sim, filepath.Join(dir, "btree.sv"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(f, rel, pagefile.NewPool(64), 8)
	if err != nil {
		t.Fatal(err)
	}
	wantRec, err := tree.RecordByRank(777)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	f2, err := pagefile.Open(testSim(), filepath.Join(dir, "btree.sv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	tree2, err := Open(f2, pagefile.NewPool(64))
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Count() != 2000 || tree2.Height() != tree.Height() {
		t.Fatalf("reopened tree mismatch: count=%d height=%d", tree2.Count(), tree2.Height())
	}
	gotRec, err := tree2.RecordByRank(777)
	if err != nil {
		t.Fatal(err)
	}
	if gotRec != wantRec {
		t.Fatal("reopened tree returned different record for same rank")
	}
}

func TestSamplerWithoutReplacementCompletes(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 4000, 6, 1024)
	q := record.Range{Lo: 0, Hi: workload.KeyDomain / 4}
	matching, err := workload.CountMatching(rel, record.NewBox(q))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tree.NewSampler(q, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Matching() != matching {
		t.Fatalf("Matching = %d, scan says %d", s.Matching(), matching)
	}
	seen := map[uint64]bool{}
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Key < q.Lo || rec.Key > q.Hi {
			t.Fatalf("sampled key %d outside range", rec.Key)
		}
		if seen[rec.Seq] {
			t.Fatal("sampler repeated a record")
		}
		seen[rec.Seq] = true
	}
	if int64(len(seen)) != matching {
		t.Fatalf("sampler returned %d records, want all %d", len(seen), matching)
	}
	if s.Remaining() != 0 {
		t.Fatalf("Remaining = %d after exhaustion", s.Remaining())
	}
}

func TestSamplerEmptyRange(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 100, 8, 64)
	s, err := tree.NewSampler(record.Range{Lo: -100, Hi: -1}, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Matching() != 0 {
		t.Fatalf("Matching = %d for impossible range", s.Matching())
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("Next on empty sampler = %v, want EOF", err)
	}
}

func TestSamplerBuffersLeafPages(t *testing.T) {
	// With a generous pool, repeated draws from a narrow range should stop
	// costing I/O once its few leaf pages are resident.
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 20000, 9, 4096)
	q := record.Range{Lo: 0, Hi: workload.KeyDomain / 100}
	s, err := tree.NewSampler(q, rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	half := s.Matching() / 2
	for i := int64(0); i < half; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	mid := sim.Now()
	for i := half; i < s.Matching(); i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	second := sim.Now() - mid
	if second > mid/4 {
		t.Fatalf("second half cost %v vs first-half-inclusive %v; buffering not effective", second, mid)
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

func TestEmptyTree(t *testing.T) {
	sim := testSim()
	rel := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	tree, err := Build(pagefile.NewMem(sim), rel, pagefile.NewPool(4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Count() != 0 {
		t.Fatalf("Count = %d", tree.Count())
	}
	r, err := tree.RankGE(5)
	if err != nil || r != 0 {
		t.Fatalf("RankGE on empty tree = %d, %v", r, err)
	}
	s, err := tree.NewSampler(record.FullRange(), rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatal("empty tree sampler should EOF immediately")
	}
}
