package kary

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
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

func genRecords(n int, seed uint64) []record.Record {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: rng.Int64N(1 << 20), Seq: uint64(i)}
	}
	return recs
}

func TestBuildValidation(t *testing.T) {
	sim := testSim()
	if _, err := Build(pagefile.NewMem(sim), nil, 1, 3, 1); err == nil {
		t.Fatal("arity 1 accepted")
	}
	if _, err := Build(pagefile.NewMem(sim), nil, 2, 0, 1); err == nil {
		t.Fatal("height 0 accepted")
	}
	full := pagefile.NewMem(sim)
	full.Append(make([]byte, 4096))
	if _, err := Build(full, nil, 2, 3, 1); err == nil {
		t.Fatal("non-empty file accepted")
	}
}

func TestRangesTileDomain(t *testing.T) {
	sim := testSim()
	tree, err := Build(pagefile.NewMem(sim), genRecords(2000, 1), 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() != 27 || tree.Arity() != 3 || tree.Height() != 4 {
		t.Fatalf("k=%d h=%d leaves=%d", tree.Arity(), tree.Height(), tree.NumLeaves())
	}
	for l := 0; l < tree.h; l++ {
		// Ranges at each level are disjoint, ordered and cover the domain.
		rs := tree.ranges[l]
		if rs[0].Lo != record.FullRange().Lo || rs[len(rs)-1].Hi != record.FullRange().Hi {
			t.Fatalf("level %d does not span the domain", l+1)
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].Lo != rs[i-1].Hi+1 {
				t.Fatalf("level %d ranges not contiguous at %d", l+1, i)
			}
		}
	}
}

func queryAll(t *testing.T, tree *Tree, q record.Range) map[uint64]bool {
	t.Helper()
	s := tree.Query(q)
	seen := map[uint64]bool{}
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !q.Contains(rec.Key) {
			t.Fatalf("emitted key %d outside %v", rec.Key, q)
		}
		if seen[rec.Seq] {
			t.Fatal("record emitted twice")
		}
		seen[rec.Seq] = true
	}
	return seen
}

func TestQueryReturnsExactMatchingSet(t *testing.T) {
	for _, k := range []int{2, 3, 4, 8} {
		recs := genRecords(3000, uint64(k))
		sim := testSim()
		h := 4
		tree, err := Build(pagefile.NewMem(sim), recs, k, h, 7)
		if err != nil {
			t.Fatal(err)
		}
		q := record.Range{Lo: 1 << 17, Hi: 1 << 19}
		want := map[uint64]bool{}
		for i := range recs {
			if q.Contains(recs[i].Key) {
				want[recs[i].Seq] = true
			}
		}
		got := queryAll(t, tree, q)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d records, want %d", k, len(got), len(want))
		}
		for seq := range want {
			if !got[seq] {
				t.Fatalf("k=%d: missing record %d", k, seq)
			}
		}
	}
}

func TestEveryLeafReadOnce(t *testing.T) {
	sim := testSim()
	tree, err := Build(pagefile.NewMem(sim), genRecords(1000, 3), 3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := tree.Query(record.Range{Lo: 0, Hi: 1 << 18})
	for !s.done {
		if _, err := s.NextLeaf(); err != nil {
			t.Fatal(err)
		}
	}
	if s.LeavesRead() != int64(tree.NumLeaves()) {
		t.Fatalf("read %d leaves of %d", s.LeavesRead(), tree.NumLeaves())
	}
}

func TestBinaryFasterFirstThanWideArity(t *testing.T) {
	// Section III-D's claim: with the number of leaves held (approximately)
	// constant, a binary tree starts emitting combined samples after fewer
	// leaf retrievals than a wide k-ary tree, because appending sections
	// that span the query takes k stabs instead of two.
	recs := genRecords(40_000, 5)
	q := record.Range{Lo: 300_000, Hi: 700_000} // ~38% of the key domain

	leavesUntilFirstEmit := func(k, h int) int64 {
		sim := testSim()
		tree, err := Build(pagefile.NewMem(sim), recs, k, h, 9)
		if err != nil {
			t.Fatal(err)
		}
		s := tree.Query(q)
		for !s.done {
			n, err := s.NextLeaf()
			if err != nil {
				t.Fatal(err)
			}
			// Count only appended (non-trivial) emissions: skip stabs whose
			// yield could come from section 1 alone.
			if n > 0 && s.LeavesRead() > 1 {
				return s.LeavesRead()
			}
		}
		return s.LeavesRead()
	}
	binary := leavesUntilFirstEmit(2, 9) // 256 leaves
	wide := leavesUntilFirstEmit(16, 3)  // 256 leaves
	if binary > wide {
		t.Fatalf("binary needed %d leaves, 16-ary %d: binary should combine sooner", binary, wide)
	}
}

func TestEmptyTreeAndEmptyQuery(t *testing.T) {
	sim := testSim()
	tree, err := Build(pagefile.NewMem(sim), nil, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := tree.Query(record.FullRange())
	if _, err := s.Next(); err != io.EOF {
		t.Fatal("empty tree should EOF")
	}
	tree2, err := Build(pagefile.NewMem(sim), genRecords(100, 9), 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := tree2.Query(record.Range{Lo: 5, Hi: 4})
	if _, err := s2.Next(); err != io.EOF {
		t.Fatal("empty query should EOF")
	}
}

// BenchmarkAblationArity measures Section III-D's binary-versus-k-ary
// design choice: with the leaf count held constant (2^8 = 4^4 = 16^2 = 256
// leaves), it reports how many leaf retrievals (and how much simulated
// time) pass before the first appended batch can be emitted for a
// ~38%-wide range query. Wider trees must wait for up to k stabs per
// level before sections spanning the query can be appended, so "fast
// first" favours the binary tree.
func BenchmarkAblationArity(b *testing.B) {
	rng := rand.New(rand.NewPCG(21, 22))
	recs := make([]record.Record, 120_000)
	for i := range recs {
		recs[i] = record.Record{Key: rng.Int64N(1 << 20), Seq: uint64(i)}
	}
	q := record.Range{Lo: 300_000, Hi: 700_000}
	for _, cfg := range []struct{ k, h int }{{2, 9}, {4, 5}, {16, 3}} {
		b.Run(fmt.Sprintf("k%d", cfg.k), func(b *testing.B) {
			var simMS, leaves float64
			for i := 0; i < b.N; i++ {
				sim := iosim.New(iosim.DefaultModel())
				tree, err := Build(pagefile.NewMem(sim), recs, cfg.k, cfg.h, 23)
				if err != nil {
					b.Fatal(err)
				}
				s := tree.Query(q)
				t0 := sim.Now()
				for s.Appends() == 0 && !s.Done() {
					if _, err := s.NextLeaf(); err != nil {
						b.Fatal(err)
					}
				}
				simMS = float64((sim.Now() - t0).Milliseconds())
				leaves = float64(s.LeavesRead())
			}
			b.ReportMetric(simMS, "simMS/firstAppend")
			b.ReportMetric(leaves, "leaves/firstAppend")
		})
	}
}
