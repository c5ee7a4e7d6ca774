package btree

import (
	"fmt"
	"io"
	"math/rand/v2"

	"sampleview/internal/record"
)

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
