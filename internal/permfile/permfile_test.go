package permfile

import (
	"io"
	"path/filepath"
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
		PageSize:        8192,
	})
}

func buildTestFile(t *testing.T, sim *iosim.Sim, n int64, seed uint64) (*File, *pagefile.ItemFile) {
	t.Helper()
	rel, err := workload.GenerateRelation(sim, n, workload.Uniform, seed)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Build(pagefile.NewMem(sim), rel, 16, seed+100)
	if err != nil {
		t.Fatal(err)
	}
	return pf, rel
}

func TestBuildPreservesRecords(t *testing.T) {
	sim := testSim()
	pf, rel := buildTestFile(t, sim, 5000, 1)
	if pf.Count() != 5000 {
		t.Fatalf("Count = %d", pf.Count())
	}
	// Every record of the relation appears exactly once in the permutation.
	seen := make(map[uint64]record.Record, 5000)
	sc := pf.Query(record.FullBox(1))
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := seen[rec.Seq]; dup {
			t.Fatalf("record %d appears twice", rec.Seq)
		}
		seen[rec.Seq] = rec
	}
	if int64(len(seen)) != rel.Count() {
		t.Fatalf("permutation has %d records, relation %d", len(seen), rel.Count())
	}
}

func TestBuildActuallyPermutes(t *testing.T) {
	sim := testSim()
	pf, _ := buildTestFile(t, sim, 5000, 2)
	// Sequence numbers must not come out in generation order.
	sc := pf.Query(record.FullBox(1))
	inOrder := 0
	var prev uint64
	for i := 0; i < 1000; i++ {
		rec, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && rec.Seq > prev {
			inOrder++
		}
		prev = rec.Seq
	}
	// A random permutation has ~50% ascending adjacent pairs.
	if inOrder > 700 || inOrder < 300 {
		t.Fatalf("permutation looks non-random: %d/999 ascending pairs", inOrder)
	}
}

func TestQueryFiltersAndDoesNotRepeat(t *testing.T) {
	sim := testSim()
	pf, rel := buildTestFile(t, sim, 8000, 3)
	q := record.Box1D(0, workload.KeyDomain/10)
	want, err := workload.CountMatching(rel, q)
	if err != nil {
		t.Fatal(err)
	}
	sc := pf.Query(q)
	var got int64
	seen := map[uint64]bool{}
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !q.ContainsRecord(&rec) {
			t.Fatal("scanner returned non-matching record")
		}
		if seen[rec.Seq] {
			t.Fatal("scanner repeated a record")
		}
		seen[rec.Seq] = true
		got++
	}
	if got != want {
		t.Fatalf("scanner returned %d matches, relation holds %d", got, want)
	}
	if sc.scanned != pf.Count() {
		t.Fatalf("Scanned = %d, want %d", sc.scanned, pf.Count())
	}
}

func TestScanIsSequentialIO(t *testing.T) {
	sim := testSim()
	pf, _ := buildTestFile(t, sim, 20000, 5)
	base := sim.Counters()
	sc := pf.Query(record.FullBox(1))
	for {
		if _, err := sc.Next(); err != nil {
			break
		}
	}
	c := sim.Counters()
	random := c.RandomReads - base.RandomReads
	seq := c.SequentialReads - base.SequentialReads
	if random > 1 {
		t.Fatalf("scan performed %d random reads", random)
	}
	if seq < pf.DataPages()-1 {
		t.Fatalf("scan performed only %d sequential reads of %d pages", seq, pf.DataPages())
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sim := testSim()
	rel, err := workload.GenerateRelation(sim, 3000, workload.Uniform, 6)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pagefile.Create(sim, filepath.Join(dir, "perm.sv"))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Build(f, rel, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	sim2 := testSim()
	f2, err := pagefile.Open(sim2, filepath.Join(dir, "perm.sv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	pf2, err := Open(f2)
	if err != nil {
		t.Fatal(err)
	}
	if pf2.Count() != pf.Count() {
		t.Fatalf("reopened count %d, want %d", pf2.Count(), pf.Count())
	}
	sc := pf2.Query(record.FullBox(1))
	var n int64
	for {
		if _, err := sc.Next(); err != nil {
			break
		}
		n++
	}
	if n != 3000 {
		t.Fatalf("reopened scan returned %d records", n)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	sim := testSim()
	f := pagefile.NewMem(sim)
	if _, err := Open(f); err == nil {
		t.Fatal("empty file accepted")
	}
	f.Append(make([]byte, 8192))
	if _, err := Open(f); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	sim := testSim()
	rel, _ := workload.GenerateRelation(sim, 10, workload.Uniform, 1)
	nonEmpty := pagefile.NewMem(sim)
	nonEmpty.Append(make([]byte, 8192))
	if _, err := Build(nonEmpty, rel, 8, 1); err == nil {
		t.Fatal("non-empty destination accepted")
	}
	badItems := pagefile.NewItemFile(pagefile.NewMem(sim), 50)
	if _, err := Build(pagefile.NewMem(sim), badItems, 8, 1); err == nil {
		t.Fatal("non-record source accepted")
	}
}
