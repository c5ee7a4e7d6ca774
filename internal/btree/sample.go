package btree

import (
	"fmt"
	"io"
	"math/rand/v2"

	"sampleview/internal/record"
)

// Sampler draws a without-replacement uniform random sample from the
// records whose keys fall in a range, following the paper's Algorithm 1:
// draw uniform ranks in [r1, r2], discard ranks already used, and fetch
// each fresh rank through the counted internal nodes. One leaf page is
// touched per draw; the buffer pool makes repeat visits free.
type Sampler struct {
	t     *Tree
	rng   *rand.Rand
	r1    int64
	span  int64
	drawn int64
	used  []uint64 // bitset over the rank span
	// tail holds the shuffled not-yet-drawn ranks once the span is nearly
	// exhausted, so completion runs do not degenerate into endless
	// rejection loops.
	tail []int64
}

// NewSampler returns a sampler over the records of t whose keys fall in q.
func (t *Tree) NewSampler(q record.Range, rng *rand.Rand) (*Sampler, error) {
	if rng == nil {
		return nil, fmt.Errorf("btree: sampler needs a random source")
	}
	r1, r2, err := t.RankRange(q)
	if err != nil {
		return nil, err
	}
	span := r2 - r1 + 1
	if span < 0 {
		span = 0
	}
	return &Sampler{
		t:    t,
		rng:  rng,
		r1:   r1,
		span: span,
		used: make([]uint64, (span+63)/64),
	}, nil
}

// Matching returns the total number of records satisfying the predicate,
// known exactly from the rank computation.
func (s *Sampler) Matching() int64 { return s.span }

func (s *Sampler) isUsed(i int64) bool { return s.used[i/64]&(1<<uint(i%64)) != 0 }
func (s *Sampler) setUsed(i int64)     { s.used[i/64] |= 1 << uint(i%64) }

// Next returns one more uniformly drawn matching record, or io.EOF once
// every matching record has been returned.
func (s *Sampler) Next() (record.Record, error) {
	var rec record.Record
	if s.drawn >= s.span {
		return rec, io.EOF
	}
	rank, err := s.draw()
	if err != nil {
		return rec, err
	}
	s.drawn++
	return s.t.RecordByRank(rank)
}

// draw picks a fresh rank uniformly from the unused portion of the span.
func (s *Sampler) draw() (int64, error) {
	if s.tail != nil {
		r := s.tail[len(s.tail)-1]
		s.tail = s.tail[:len(s.tail)-1]
		return r, nil
	}
	// Switch to an explicit shuffled tail once rejection would retry too
	// often (more than ~8 expected attempts per draw).
	if rem := s.span - s.drawn; s.span >= 64 && rem*8 < s.span {
		s.tail = make([]int64, 0, rem)
		for i := int64(0); i < s.span; i++ {
			if !s.isUsed(i) {
				s.tail = append(s.tail, s.r1+i)
			}
		}
		s.rng.Shuffle(len(s.tail), func(i, j int) {
			s.tail[i], s.tail[j] = s.tail[j], s.tail[i]
		})
		return s.draw()
	}
	for {
		i := s.rng.Int64N(s.span)
		if s.isUsed(i) {
			continue // step 3.b: regenerate previously seen ranks
		}
		s.setUsed(i)
		return s.r1 + i, nil
	}
}
