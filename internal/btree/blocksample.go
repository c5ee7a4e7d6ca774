package btree

import (
	"fmt"
	"io"
	"math/rand/v2"

	"sampleview/internal/record"
)

// BlockSampler implements the block-based sampling strawman of the
// paper's Section II-C (after Haas & Koenig / Chaudhuri et al.): instead
// of retrieving one record per random I/O, it samples a uniformly random
// *leaf page* whose rank interval intersects the query and returns every
// matching record on it. This improves records-per-I/O by two to three
// orders of magnitude, but the records inside a block are adjacent in key
// order and therefore correlated: an estimator that treats them as
// independent understates its error, sometimes drastically (demonstrated
// by TestBlockSamplesInflateVariance).
type BlockSampler struct {
	t       *Tree
	rng     *rand.Rand
	q       record.Range
	pages   []int64 // data pages intersecting the query's rank range, shuffled
	next    int
	records int64
}

// NewBlockSampler returns a sampler over the leaf pages of t whose
// records intersect q. Pages are visited in a uniformly random order,
// each exactly once.
func (t *Tree) NewBlockSampler(q record.Range, rng *rand.Rand) (*BlockSampler, error) {
	if rng == nil {
		return nil, fmt.Errorf("btree: block sampler needs a random source")
	}
	r1, r2, err := t.RankRange(q)
	if err != nil {
		return nil, err
	}
	s := &BlockSampler{t: t, rng: rng, q: q}
	if r2 >= r1 {
		perPage := int64(t.items.PerPage())
		p1 := t.items.StartPage() + r1/perPage
		p2 := t.items.StartPage() + r2/perPage
		for p := p1; p <= p2; p++ {
			s.pages = append(s.pages, p)
		}
		rng.Shuffle(len(s.pages), func(i, j int) { s.pages[i], s.pages[j] = s.pages[j], s.pages[i] })
	}
	return s, nil
}

// Records returns how many matching records have been returned.
func (s *BlockSampler) Records() int64 { return s.records }

// NextBlock reads one more uniformly chosen leaf page and returns its
// matching records (never empty except possibly at the boundary pages).
// It returns io.EOF once every intersecting page has been consumed.
func (s *BlockSampler) NextBlock() ([]record.Record, error) {
	if s.next >= len(s.pages) {
		return nil, io.EOF
	}
	pg := s.pages[s.next]
	s.next++
	buf := s.t.f.PageBuf()
	defer s.t.f.PutPageBuf(buf)
	if err := s.t.pool.ReadInto(s.t.f, pg, buf); err != nil {
		return nil, err
	}
	first := (pg - s.t.items.StartPage()) * int64(s.t.items.PerPage())
	n := min(int64(s.t.items.PerPage()), s.t.count-first)
	var out []record.Record
	for i := int64(0); i < n; i++ {
		var rec record.Record
		rec.Unmarshal(buf[i*record.Size : (i+1)*record.Size])
		if s.q.Contains(rec.Key) {
			out = append(out, rec)
		}
	}
	s.records += int64(len(out))
	return out, nil
}
