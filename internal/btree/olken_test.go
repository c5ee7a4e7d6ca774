package btree

import (
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	"sampleview/internal/oracle"
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

// TestOlkenPrefixOracle draws the first record of 30 Olken samplers per
// record of a 777-record tree (a ragged last page) over the full range:
// every draw must be the relation's record, and the draws must spread
// uniformly over the ranks (oracle.Checker, cut 1).
func TestOlkenPrefixOracle(t *testing.T) {
	tree, rel := buildTestTree(t, testSim(), 777, 42, 4096)
	recs, err := workload.CollectMatching(rel, record.FullBox(2))
	if err != nil {
		t.Fatal(err)
	}
	ck, m, rng := oracle.NewChecker(), oracle.NewModel(recs), rand.New(rand.NewPCG(2, 2))
	for range 30 * len(recs) {
		s, err := tree.NewOlkenSampler(record.FullRange(), rng)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		ck.Stream(m, record.FullBox(1)).Add(rec)
	}
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
	if v := ck.Verdicts()[0]; v.Cut != 1 || !v.Tested || v.N < 777*30 {
		t.Fatalf("cut %d pooled %d records (tested %v), want at least %d", v.Cut, v.N, v.Tested, 777*30)
	}
}

// OlkenSampler implements the classic Olken & Rotem early-abort
// acceptance/rejection sampler over an (un-ranked) B+-Tree - the
// historical technique whose "one random disk I/O per sample" cost the
// paper's introduction uses to motivate sample views. Each draw walks
// root to leaf choosing a child uniformly at random; the walk is
// restarted ("aborted") with probability 1 - fanout/maxFanout at every
// node so that records under sparser nodes are not over-represented, and
// the reached record is rejected if it fails the predicate. Selective
// predicates therefore waste most descents, the second drawback the
// paper highlights.
type OlkenSampler struct {
	t         *Tree
	q         record.Range
	rng       *rand.Rand
	maxFan    int
	perPage   int
	used      map[int64]struct{}
	attempts  int64
	maxFutile int
	exhausted bool
}

// OlkenDefaultMaxFutile bounds consecutive unproductive descents before
// the sampler declares the predicate exhausted.
const OlkenDefaultMaxFutile = 50000

// NewOlkenSampler returns an Olken sampler over the records of t whose
// keys fall in q. Draws are without replacement.
func (t *Tree) NewOlkenSampler(q record.Range, rng *rand.Rand) (*OlkenSampler, error) {
	if rng == nil {
		return nil, fmt.Errorf("btree: olken sampler needs a random source")
	}
	return &OlkenSampler{
		t:         t,
		q:         q,
		rng:       rng,
		maxFan:    t.fanout(),
		perPage:   t.items.PerPage(),
		used:      make(map[int64]struct{}),
		maxFutile: OlkenDefaultMaxFutile,
	}, nil
}

// Attempts returns the number of descents performed, including aborted
// and rejected ones: the quantity that costs a random I/O each in the
// uncached case.
func (s *OlkenSampler) Attempts() int64 { return s.attempts }

// Next returns one more uniformly drawn matching record, or io.EOF once
// the sampler concludes the predicate is exhausted.
func (s *OlkenSampler) Next() (record.Record, error) {
	var rec record.Record
	if s.exhausted || s.t.count == 0 {
		return rec, io.EOF
	}
	for futile := 0; futile < s.maxFutile; futile++ {
		s.attempts++
		got, idx, ok, err := s.attempt()
		if err != nil {
			return rec, err
		}
		if !ok {
			continue
		}
		s.used[idx] = struct{}{}
		return got, nil
	}
	s.exhausted = true
	return rec, io.EOF
}

func (s *OlkenSampler) attempt() (rec record.Record, idx int64, ok bool, err error) {
	pg := s.t.rootPage
	for lvl := s.t.height; lvl >= 1; lvl-- {
		entries, _, err := s.t.readNode(pg)
		if err != nil {
			return rec, 0, false, err
		}
		// Early abort: keep the walk alive with probability
		// fanout/maxFanout so every child slot is equally likely overall.
		if len(entries) < s.maxFan && s.rng.IntN(s.maxFan) >= len(entries) {
			return rec, 0, false, nil
		}
		pg = entries[s.rng.IntN(len(entries))].child
	}
	// pg is a data page; equalize for the (possibly short) last page.
	first := (pg - s.t.items.StartPage()) * int64(s.perPage)
	n := min(int64(s.perPage), s.t.count-first)
	slot := int64(s.rng.IntN(s.perPage))
	if slot >= n {
		return rec, 0, false, nil // phantom slot on the short page
	}
	buf := s.t.f.PageBuf()
	defer s.t.f.PutPageBuf(buf)
	if err := s.t.pool.ReadInto(s.t.f, pg, buf); err != nil {
		return rec, 0, false, err
	}
	rec.Unmarshal(buf[slot*record.Size : (slot+1)*record.Size])
	if !s.q.Contains(rec.Key) {
		return rec, 0, false, nil // predicate rejection
	}
	idx = first + slot
	if _, dup := s.used[idx]; dup {
		return rec, 0, false, nil
	}
	return rec, idx, true, nil
}
