// Package oracle checks the paper's invariant on every sampling path: every
// prefix of every stream is a uniform without-replacement sample of the
// predicate's matches. A Model holds what the relation holds; a Checker holds
// each stream's records to it and pools the rank buckets of every stream's
// prefixes into one chi-square per cut. Streams over one structure share its
// stored order, so callers pool streams over independent builds.
package oracle

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"

	"sampleview/internal/record"
	"sampleview/internal/stats"
)

// Alpha is the level every verdict is taken at. Ranked matches are cut into
// buckets of equal rank ranges; a verdict merges neighbours until every cell
// expects at least minExpected records (a cell holding no rank, when a
// predicate has under 16 matches, expects none).
const Alpha, buckets, minExpected = 1e-3, 16, 5

// Cuts are the prefix lengths a Checker tests when its caller names none.
var Cuts = []int{1, 10, 100, 1000}

type entry struct {
	rec     record.Record
	pending bool // in flight at a cut: may be served or not
}

// Model is a relation's live records, the base plus acked writes minus
// tombstones, beside the writes still in flight. It is safe for concurrent
// use, so writers may register records while streams are checked.
type Model struct {
	mu   sync.Mutex
	recs map[uint64]*entry
	// sorted holds the entries by (Key, Seq) as of the last ranked; the
	// entries set since wait in fresh, and stale says whether any entry was
	// replaced or deleted since.
	sorted, fresh []*entry
	stale         bool
}

// NewModel returns a model holding base.
func NewModel(base []record.Record) *Model {
	m := &Model{recs: make(map[uint64]*entry, len(base))}
	m.Write(base...)
	return m
}

// Write records acknowledged inserts, Pending inserts or deletes not yet
// acknowledged (a stream may serve a pending record or not), Delete
// acknowledged tombstones.
func (m *Model) Write(recs ...record.Record)   { m.set(recs, true, false) }
func (m *Model) Pending(recs ...record.Record) { m.set(recs, true, true) }
func (m *Model) Delete(recs ...record.Record)  { m.set(recs, false, false) }

func (m *Model) set(recs []record.Record, live, pending bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range recs {
		if _, ok := m.recs[r.Seq]; ok {
			delete(m.recs, r.Seq)
			m.stale = true
		}
		if live {
			e := &entry{r, pending}
			m.recs[r.Seq] = e
			m.fresh = append(m.fresh, e)
		}
	}
}

// ranked returns q's matches, pending ones included, by (Key, Seq): the
// run of the sorted entries in q's key range, found by binary search and,
// for a box of more dimensions, filtered on the others. Streams over
// different predicates share the sorted entries: a change only sorts the
// entries it set and merges them in, into a new slice, since the runs
// handed out before alias the old one.
func (m *Model) ranked(q record.Box) []*entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.fresh) > 0 || m.stale {
		slices.SortFunc(m.fresh, func(a, b *entry) int { return keySeq(a, &b.rec) })
		merged, rest := make([]*entry, 0, len(m.sorted)+len(m.fresh)), m.sorted
		for _, e := range m.fresh {
			n, _ := slices.BinarySearchFunc(rest, &e.rec, keySeq)
			merged, rest = append(append(merged, rest[:n]...), e), rest[n:]
		}
		merged = append(merged, rest...)
		if m.stale {
			merged = slices.DeleteFunc(merged, func(e *entry) bool { return m.recs[e.rec.Seq] != e })
		}
		clear(m.fresh)
		m.sorted, m.fresh, m.stale = merged, m.fresh[:0], false
	}
	keys := q.Dim(0)
	lo, _ := slices.BinarySearchFunc(m.sorted, keys.Lo, func(e *entry, k int64) int { return cmp.Compare(e.rec.Key, k) })
	n, _ := slices.BinarySearchFunc(m.sorted[lo:], keys.Hi, func(e *entry, k int64) int { return cmp.Or(cmp.Compare(e.rec.Key, k), -1) })
	run := m.sorted[lo : lo+n : lo+n]
	if q.Dims() == 1 {
		return run
	}
	var out []*entry
	for _, e := range run {
		if q.ContainsRecord(&e.rec) {
			out = append(out, e)
		}
	}
	return out
}

func keySeq(e *entry, r *record.Record) int {
	return cmp.Or(cmp.Compare(e.rec.Key, r.Key), cmp.Compare(e.rec.Seq, r.Seq))
}

// Shuffle is the reference stream: a seeded Fisher–Yates over q's matches.
func (m *Model) Shuffle(q record.Box, seed uint64) []record.Record {
	var out []record.Record
	for _, e := range m.ranked(q) {
		out = append(out, e.rec)
	}
	rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Checker pools the streams it is handed: per cut, the rank buckets of the
// records served before it beside what the buckets' exact shares predict.
// It is safe for concurrent use; each Stream belongs to one goroutine.
type Checker struct {
	cuts []int
	mu   sync.Mutex
	n    []int64 // ranked records pooled per cut
	obs  [][buckets]int64
	want [][buckets]float64
	bad  []string
}

// NewChecker tests the prefixes of the given lengths, or Cuts.
func NewChecker(cuts ...int) *Checker {
	if len(cuts) == 0 {
		cuts = Cuts
	}
	return &Checker{cuts: cuts, n: make([]int64, len(cuts)), obs: make([][buckets]int64, len(cuts)), want: make([][buckets]float64, len(cuts))}
}

func (c *Checker) flag(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bad = append(c.bad, fmt.Sprintf(format, args...))
}

// Stream is one stream's record of what it was served.
type Stream struct {
	c      *Checker
	m      *Model
	q      record.Box
	ranked []*entry
	seen   map[uint64]bool
	n      int64 // ranked records served
	hist   [buckets]int64
}

// Stream checks one stream over m's matches of q. With a nil m the
// relation is unknown: only the predicate and duplicates are checked, and
// the stream adds nothing to the statistic.
func (c *Checker) Stream(m *Model, q record.Box) *Stream {
	s := &Stream{c: c, m: m, q: q, seen: make(map[uint64]bool)}
	if m != nil {
		s.ranked = m.ranked(q)
	}
	return s
}

// Add checks records in the order the stream served them: each must be
// byte-equal to the model's, inside the predicate and new to the stream.
func (s *Stream) Add(recs ...record.Record) {
	for _, r := range recs {
		if s.m != nil {
			s.m.mu.Lock()
			e := s.m.recs[r.Seq]
			s.m.mu.Unlock()
			if e == nil || e.rec != r {
				s.c.flag("seq %d is not the model's record (phantom or altered)", r.Seq)
				continue
			}
		}
		if !s.q.ContainsRecord(&r) {
			s.c.flag("seq %d outside the predicate", r.Seq)
		}
		if s.seen[r.Seq] {
			s.c.flag("duplicate seq %d (not without-replacement)", r.Seq)
			continue
		}
		s.seen[r.Seq] = true
		if i, ok := slices.BinarySearchFunc(s.ranked, &r, keySeq); ok {
			s.hist[i*buckets/len(s.ranked)]++
			s.n++
		}
		if j, l := slices.Index(s.c.cuts, len(s.seen)), len(s.ranked); j >= 0 && l > 0 {
			s.c.mu.Lock()
			s.c.n[j] += s.n
			for b := range buckets { // bucket b holds ranks ⌈bl/buckets⌉ to ⌈(b+1)l/buckets⌉
				s.c.obs[j][b] += s.hist[b]
				s.c.want[j][b] += float64(s.n) * float64(((b+1)*l+buckets-1)/buckets-(b*l+buckets-1)/buckets) / float64(l)
			}
			s.c.mu.Unlock()
		}
	}
}

// Drained checks that the stream, having reached its end, served every
// match that was not in flight.
func (s *Stream) Drained() {
	for _, e := range s.ranked {
		if !s.seen[e.rec.Seq] && !e.pending {
			s.c.flag("seq %d missing from a drained stream", e.rec.Seq)
		}
	}
}

// Verdict is one cut's pooled chi-square over N ranked records. P is 1 and
// Tested false when too few were pooled for two cells of minExpected.
type Verdict struct {
	Cut    int
	N      int64
	P      float64
	Tested bool
}

// Verdicts returns one verdict per cut.
func (c *Checker) Verdicts() []Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Verdict, len(c.cuts))
	for i := range out {
		v := Verdict{Cut: c.cuts[i], N: c.n[i], P: 1}
		for cells := buckets; cells >= 2 && !v.Tested; cells /= 2 {
			o, w := make([]int64, cells), make([]float64, cells)
			for b := range buckets {
				o[b*cells/buckets] += c.obs[i][b]
				w[b*cells/buckets] += c.want[i][b]
			}
			if v.Tested = slices.Min(w) >= minExpected; v.Tested {
				v.P, _ = stats.ChiSquarePValue(o, w)
			}
		}
		out[i] = v
	}
	return out
}

// Violations returns every record-level violation flagged so far.
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.bad)
}

// Err reports the violations and every tested cut below Alpha, or nil.
func (c *Checker) Err() error {
	bad := c.Violations()
	for _, v := range c.Verdicts() {
		if v.Tested && v.P < Alpha {
			bad = append(bad, fmt.Sprintf("cut %d: rank buckets of %d pooled records not uniform (p=%.3g)", v.Cut, v.N, v.P))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%d violations: %s", len(bad), strings.Join(bad[:min(len(bad), 5)], "; "))
}
