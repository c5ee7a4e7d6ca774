package btree

import (
	"io"
	"math/rand/v2"
	"testing"

	"sampleview/internal/record"
	"sampleview/internal/workload"
)

func TestOlkenMatchesPredicateWithoutReplacement(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 3000, 41, 4096)
	q := record.Range{Lo: 0, Hi: workload.KeyDomain / 2}
	want, err := workload.CountMatching(rel, record.NewBox(q))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tree.NewOlkenSampler(q, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := int64(0); i < want/2; i++ {
		rec, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !q.Contains(rec.Key) {
			t.Fatal("olken returned non-matching record")
		}
		if seen[rec.Seq] {
			t.Fatal("olken repeated a record")
		}
		seen[rec.Seq] = true
	}
	if int64(len(s.used)) != want/2 {
		t.Fatalf("returned %d distinct records", len(s.used))
	}
}

func TestOlkenSelectiveQueriesWasteDescents(t *testing.T) {
	// The paper's point: for a selective predicate most descents are
	// rejected, so attempts >> samples.
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 20_000, 43, 4096)
	q := record.Range{Lo: 0, Hi: workload.KeyDomain / 100} // ~1%
	s, err := tree.NewOlkenSampler(q, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	ratio := float64(s.Attempts()) / 50
	if ratio < 20 {
		t.Fatalf("attempts per sample = %.1f; expected ~100 for a 1%% predicate", ratio)
	}
}

func TestOlkenExhaustsAndValidates(t *testing.T) {
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 500, 44, 4096)
	q := record.Range{Lo: 0, Hi: workload.KeyDomain / 10}
	want, err := workload.CountMatching(rel, record.NewBox(q))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tree.NewOlkenSampler(q, rand.New(rand.NewPCG(4, 4)))
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
		t.Fatalf("olken exhausted after %d records, want %d", got, want)
	}
	if _, err := tree.NewOlkenSampler(q, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}
