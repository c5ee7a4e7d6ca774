package rtree

import (
	"fmt"
	"io"
	"math/rand/v2"

	"sampleview/internal/record"
)

// DefaultMaxFutile is the number of consecutive unproductive draw attempts
// after which a Sampler declares the predicate exhausted. The sampler has
// no exact count of matching records (an R-Tree cannot rank a box query),
// so, as in any rejection sampler run to depletion, termination is
// detected statistically.
const DefaultMaxFutile = 20000

// Sampler draws uniform random records from a box predicate over an
// R-Tree. It extends Antoshenkov's ranked-tree algorithm in the "obvious
// fashion" the paper describes, with an explicit acceptance/rejection
// correction that makes every draw exactly uniform:
//
// The descent visits only children whose MBR intersects the query, picking
// child c with probability count(c)/S(v), where S(v) sums the counts of
// v's intersecting children. A record in an intersecting leaf is therefore
// reached with probability (1/S(root)) * prod(count(v)/S(v)) over the
// internal nodes v below the root on its path. Accepting each draw with
// probability prod(S(v)/count(v)) <= 1 flattens this to exactly 1/S(root)
// for every reachable record; a final membership rejection then yields
// uniformity over the matching records. Draws already returned are
// rejected and redrawn, so the output is a sample without replacement.
type Sampler struct {
	t         *Tree
	q         record.Box
	rng       *rand.Rand
	used      map[int64]struct{} // global record index = (leafPage-1)*perPage + slot
	maxFutile int
	attempts  int64
	exhausted bool
}

// NewSampler returns a sampler over the records of t falling inside q,
// which must be two-dimensional.
func (t *Tree) NewSampler(q record.Box, rng *rand.Rand) (*Sampler, error) {
	if q.Dims() != 2 {
		return nil, fmt.Errorf("rtree: query must be 2-dimensional, got %d dims", q.Dims())
	}
	if rng == nil {
		return nil, fmt.Errorf("rtree: sampler needs a random source")
	}
	return &Sampler{t: t, q: q, rng: rng, used: make(map[int64]struct{}), maxFutile: DefaultMaxFutile}, nil
}

// Attempts reports how many descents have been performed, including
// rejected ones. Every attempt costs a root-to-leaf walk, so harnesses
// charging per-draw CPU should charge per attempt.
func (s *Sampler) Attempts() int64 { return s.attempts }

// Next returns one more uniformly drawn matching record, or io.EOF once
// the sampler concludes the predicate is exhausted.
func (s *Sampler) Next() (record.Record, error) {
	var rec record.Record
	if s.exhausted || s.t.count == 0 || s.t.height == 0 {
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

// attempt performs one descent; ok reports whether it produced a fresh
// matching record.
func (s *Sampler) attempt() (rec record.Record, idx int64, ok bool, err error) {
	pg := s.t.rootPage
	accept := 1.0
	for lvl := s.t.height; lvl >= 1; lvl-- {
		entries, _, err := s.t.readNode(pg)
		if err != nil {
			return rec, 0, false, err
		}
		var total, nodeCount int64
		for _, e := range entries {
			nodeCount += e.count
			if e.rect.box().Overlaps(s.q) {
				total += e.count
			}
		}
		if total == 0 {
			return rec, 0, false, nil // dead branch: reject and restart
		}
		if lvl < s.t.height {
			// Acceptance correction for this non-root internal node.
			accept *= float64(total) / float64(nodeCount)
		}
		draw := s.rng.Int64N(total)
		var chosen entry
		for _, e := range entries {
			if !e.rect.box().Overlaps(s.q) {
				continue
			}
			if draw < e.count {
				chosen = e
				break
			}
			draw -= e.count
		}
		pg = chosen.child
		if lvl == 1 {
			// chosen.child is a leaf data page holding chosen.count records.
			slot := s.rng.Int64N(chosen.count)
			if s.rng.Float64() >= accept {
				return rec, 0, false, nil
			}
			buf := s.t.f.PageBuf()
			defer s.t.f.PutPageBuf(buf)
			if err := s.t.pool.ReadInto(s.t.f, pg, buf); err != nil {
				return rec, 0, false, err
			}
			rec.Unmarshal(buf[slot*record.Size : (slot+1)*record.Size])
			if !s.q.ContainsRecord(&rec) {
				return rec, 0, false, nil
			}
			idx = (pg-s.t.items.StartPage())*int64(s.t.items.PerPage()) + slot
			if _, dup := s.used[idx]; dup {
				return rec, 0, false, nil
			}
			return rec, idx, true, nil
		}
	}
	return rec, 0, false, fmt.Errorf("rtree: descent ended without reaching a leaf")
}
