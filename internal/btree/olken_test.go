package btree

import (
	"io"
	"math/rand/v2"
	"testing"

	"sampleview/internal/record"
	"sampleview/internal/stats"
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

func TestOlkenUniformity(t *testing.T) {
	// First draws across many fresh samplers must be uniform over the
	// matching records, including records on the short last page.
	sim := testSim()
	tree, rel := buildTestTree(t, sim, 777, 42, 4096) // deliberately ragged
	q := record.FullRange()
	matching, err := workload.CollectMatching(rel, record.FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	index := map[uint64]int{}
	for i := range matching {
		index[matching[i].Seq] = i
	}
	counts := make([]int64, len(matching))
	rng := rand.New(rand.NewPCG(2, 2))
	trials := 30 * len(matching)
	for i := 0; i < trials; i++ {
		s, err := tree.NewOlkenSampler(q, rng)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		counts[index[rec.Seq]]++
	}
	// Bucket to keep expected counts per cell healthy.
	const buckets = 20
	grouped := make([]int64, buckets)
	for i, c := range counts {
		grouped[i%buckets] += c
	}
	p, err := stats.ChiSquareUniformPValue(grouped)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Fatalf("olken draws not uniform: p=%v", p)
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
