package core

import (
	"fmt"
	"io"

	"sampleview/internal/record"
)

// Stream is an online random sample of the records matching a range
// predicate, produced by the paper's shuttle query algorithm
// (Algorithms 2-4).
//
// Each call to NextLeaf performs one stab: a root-to-leaf traversal that at
// every internal node alternates between the children it visited last time
// (the lookup table's next bits), always preferring a child whose region
// overlaps the query while it still has unread leaves. The retrieved leaf's
// sections, filtered as they are read, are either emitted immediately (when
// the section's region covers the query) or parked in per-region buckets;
// whenever every level-s region intersecting the query has a parked batch,
// one batch per region is appended and emitted.
//
// The guarantee, tested extensively in this package: at every instant, the
// multiset of records emitted so far is a uniform random sample, without
// replacement, of all records satisfying the predicate, and once every
// leaf has been read the stream has emitted exactly the full matching set.
type Stream struct {
	t *Tree
	q record.Box

	// The stream's working memory, taken from the tree's free list at open
	// and handed back by Close (nil afterwards).
	*scratch

	// weight and sent drive the optional weighted shuttle (nil when the
	// paper's toggling shuttle is in use).
	weight, sent []int32
	// readEvery is StreamOptions.ReadEveryLeaf.
	readEvery bool

	// buffered counts the records currently parked across all buckets
	// (Figure 15's metric).
	buffered int
	// outPeak is the most records out has held at the end of a stab.
	outPeak int

	outHead     int // s.out[outHead:] is emitted but not yet consumed
	queryLeaves int
	leavesRead  int64
	emitted     int64
	done        bool

	// pending marks a stab whose read failed transiently. The shuttle already
	// consumed the leaf's remaining counters when the stab was routed, so the
	// retry re-reads the same leaf over the preserved path instead of stabbing
	// again — a transient fault never skips a leaf, preserving prefix equality
	// with a fault-free run.
	pending bool
	// fault accounting, surfaced through Stream stats.
	transientRetries int64
	degradedLeaves   int64
	degradedSections int64
}

// scratch is the working memory of one stream at a time. Nothing in it
// outlives the stream that holds it: every record a caller is handed was
// copied out (Next, NextBatch, AppendNext) or is lent until the next call
// only (LendBatch), so Close can pass the whole object to the next stream.
type scratch struct {
	// Lookup table T: next-child toggle bit per internal node, and
	// remaining unread leaves per heap node (leaves included), which
	// doubles as the done flag (remaining == 0).
	nextRight []bool
	remaining []int32

	// requiredAll[s] (0-based section index) lists the heap indices of the
	// level-(s+1) nodes whose region overlaps the query; all of them must
	// contribute a batch before section-s batches can be appended.
	requiredAll [][]int64
	// overlaps and covers say, per heap node, whether its region overlaps and
	// contains the query: computeRequired compares boxes once per stream, and
	// every stab after it routes and combines on these bits.
	overlaps, covers []bool
	// want[idx*occWords:][:occWords] marks the occupancy buckets of heap node
	// idx's region that the query meets, for overlapping nodes whose sections
	// keep bitmaps.
	want []uint64

	// buckets[s] holds parked batches keyed by heap node index. The batches
	// themselves are exact-size allocations of the stream that parked them
	// and are dropped, not recycled, at Close.
	buckets []map[int64][][]record.Record

	out []record.Record // emitted records, consumed from Stream.outHead

	// path is the stab being served: the heap indices of its root-to-leaf
	// traversal by level (path[1..h]). It survives a transient fault so the
	// retry re-reads the same leaf.
	path []int64

	// dec is the reusable leaf-decode arena and page buffer.
	dec leafDecoder
}

// Retained scratch is bounded by constants: a tree keeps at most
// maxFreeScratch idle objects, and an object whose stream needed more than
// maxKeepRecords records in a buffer (one unusually wide combine) sheds that
// buffer before it is kept: judged by out's high-water length and the arena's
// exact size, never by where append's growth policy rounded a capacity to.
const (
	maxFreeScratch = 4
	maxKeepRecords = 4096
)

// getScratch takes a scratch object off the tree's free list (or makes one)
// and sizes and resets its tables for a new stream over t.
func (t *Tree) getScratch() *scratch {
	var sc *scratch
	select {
	case sc = <-t.free:
	default:
		sc = new(scratch)
	}
	sc.nextRight = resized(sc.nextRight, int(t.nLeaves))
	clear(sc.nextRight)
	sc.remaining = resized(sc.remaining, int(2*t.nLeaves))
	sc.overlaps = resized(sc.overlaps, int(2*t.nLeaves))
	clear(sc.overlaps)
	sc.covers = resized(sc.covers, int(2*t.nLeaves))
	clear(sc.covers)
	sc.want = resized(sc.want, len(t.occRange)*occWords)
	sc.requiredAll = resized(sc.requiredAll, t.h)
	sc.buckets = resized(sc.buckets, t.h)
	for i := range sc.buckets {
		sc.requiredAll[i] = sc.requiredAll[i][:0]
		if sc.buckets[i] == nil {
			sc.buckets[i] = make(map[int64][][]record.Record)
		}
	}
	sc.out = sc.out[:0]
	sc.path = resized(sc.path, t.h+1)
	return sc
}

// resized returns s with length n, reallocating only when it must; the
// contents are the caller's to reset.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Close hands the stream's working memory back to the tree for the next
// stream. It is optional — an unclosed stream is ordinary garbage — and
// idempotent; afterwards the stream reads as exhausted and its counters
// stay valid. Like every method it must not race with a draw: the layers
// above serialize both behind their stream lock.
func (s *Stream) Close() {
	sc := s.scratch
	if sc == nil {
		return
	}
	s.scratch, s.done, s.outHead, s.buffered = nil, true, 0, 0
	for _, b := range sc.buckets {
		clear(b)
	}
	if s.outPeak > maxKeepRecords {
		sc.out = nil
	}
	if cap(sc.dec.arena) > maxKeepRecords {
		sc.dec.arena = nil
	}
	select {
	case s.t.free <- sc:
	default:
	}
}

// StreamOptions tunes the query algorithm.
type StreamOptions struct {
	// WeightedShuttle routes each stab toward the child with the larger
	// deficit of visits relative to its share of query-relevant leaves,
	// instead of the paper's strict 50/50 alternation. The paper's toggling
	// sends equal stab streams to both sides of any split whose children
	// both overlap the query, even when one side contains far more of the
	// query's regions; the surplus batches then wait in the combine buckets
	// (they can only be emitted one-per-region). Weighting removes that
	// imbalance and increases early throughput, with an identical
	// statistical guarantee: the emission rule is unchanged, and it is the
	// emission rule alone that makes every prefix a uniform sample. This is
	// an extension over the published algorithm, off by default and
	// measured by BenchmarkAblationShuttle.
	WeightedShuttle bool
	// ReadEveryLeaf makes every stab read its leaf, the published
	// one-leaf-per-stab cost the paper's figures are drawn against. By
	// default a stab whose sections' occupancy bits show no key of the
	// query skips the read. The records, their order and the stabs are the
	// same either way; only the pages charged (and their faults) differ.
	ReadEveryLeaf bool
}

// Query returns an online sample stream over the records of t matching q,
// using the paper's shuttle as published, minus the reads of leaves that
// cannot hold a match.
func (t *Tree) Query(q record.Box) (*Stream, error) {
	return t.QueryWithOptions(q, StreamOptions{})
}

// QueryWithOptions is Query with algorithm tuning.
func (t *Tree) QueryWithOptions(q record.Box, opts StreamOptions) (*Stream, error) {
	if q.Dims() != t.dims {
		return nil, fmt.Errorf("core: query has %d dims, tree has %d", q.Dims(), t.dims)
	}
	s := &Stream{t: t, q: q, scratch: t.getScratch(), readEvery: opts.ReadEveryLeaf}
	// remaining[i] = number of leaves below heap node i.
	for i := int64(1); i < 2*t.nLeaves; i++ {
		lvl := levelOf(i)
		s.remaining[i] = int32(int64(1) << uint(t.h-lvl))
	}
	if !q.Empty() {
		s.computeRequired(1, 1, record.FullBox(t.dims))
	}
	s.queryLeaves = len(s.requiredAll[t.h-1])
	if opts.WeightedShuttle {
		// weight[i] = number of query-overlapping leaf regions below heap
		// node i; sent[i] counts stabs routed through it.
		s.weight = make([]int32, 2*t.nLeaves)
		s.sent = make([]int32, 2*t.nLeaves)
		for _, leafIdx := range s.requiredAll[t.h-1] {
			for i := leafIdx; i >= 1; i /= 2 {
				s.weight[i]++
			}
		}
	}
	if t.count == 0 || q.Empty() {
		s.done = true
	}
	return s, nil
}

// computeRequired walks the tree regions top-down from node idx and
// records which nodes overlap the query, per level and per node.
func (s *Stream) computeRequired(idx int64, level int, box record.Box) {
	if !box.Overlaps(s.q) {
		return
	}
	s.requiredAll[level-1] = append(s.requiredAll[level-1], idx)
	s.overlaps[idx], s.covers[idx] = true, box.ContainsBox(s.q)
	if idx < int64(len(s.t.occRange)) {
		want := s.want[idx*occWords:][:occWords]
		clear(want)
		r, q := s.t.occRange[idx], s.q.Dim(0)
		if lo, hi := max(r.Lo, q.Lo), min(r.Hi, q.Hi); lo <= hi {
			for b := occBucket(r, lo); b <= occBucket(r, hi); b++ {
				want[b/64] |= 1 << (b % 64)
			}
		}
	}
	if level == s.t.h {
		return
	}
	split := s.t.splits[idx]
	s.computeRequired(2*idx, level+1, s.t.childBox(box, level, split, false))
	s.computeRequired(2*idx+1, level+1, s.t.childBox(box, level, split, true))
}

// queued returns the records emitted but not yet consumed.
func (s *Stream) queued() []record.Record {
	if s.scratch == nil {
		return nil
	}
	return s.out[s.outHead:]
}

// Done reports whether every leaf has been read and the stream drained of
// new batches.
func (s *Stream) Done() bool { return s.done && len(s.queued()) == 0 }

// QueryLeaves returns the number of leaf regions that overlap the query:
// the leaves that can ever contribute matching records. Shard mergers use
// it to apportion a degraded leaf's share of the estimated matching count.
func (s *Stream) QueryLeaves() int { return s.queryLeaves }

// RemainingLeaves returns the number of leaves not yet served to the caller
// (over the whole tree, not just the query-overlapping region).
func (s *Stream) RemainingLeaves() int64 {
	if s.scratch == nil {
		return 0
	}
	return int64(s.remaining[1])
}

// LeavesRead returns the number of stabs served so far, skipped reads
// included.
func (s *Stream) LeavesRead() int64 { return s.leavesRead }

// Emitted returns the number of sample records emitted so far (consumed or
// not).
func (s *Stream) Emitted() int64 { return s.emitted }

// Buffered returns the number of records currently parked in the combine
// buckets: records that match the predicate but cannot yet be used
// (Figure 15's metric).
func (s *Stream) Buffered() int { return s.buffered }

// TransientRetries returns how many stabs surfaced a transient storage
// failure that the caller retried (the storage layer's own absorbed retries
// are counted by the disk's fault counters, not here).
func (s *Stream) TransientRetries() int64 { return s.transientRetries }

// DegradedLeaves returns how many leaves the stream permanently lost to
// hard storage failures.
func (s *Stream) DegradedLeaves() int64 { return s.degradedLeaves }

// DegradedSections returns the total number of query-overlapping sections
// lost with degraded leaves.
func (s *Stream) DegradedSections() int64 { return s.degradedSections }

// AppendNext is the stream's batch draw: it appends the next n sample
// records to dst — a slice the caller owns; the stream keeps no reference
// to it — performing stabs as needed, and returns the extended slice. Fewer
// than n records with a nil error means every matching record has been
// emitted and consumed. On an error the records drawn before it are
// returned with it and a retried call continues where the fault struck.
func (s *Stream) AppendNext(dst []record.Record, n int) ([]record.Record, error) {
	for n > 0 {
		q := s.queued()
		if len(q) == 0 {
			if s.done {
				break
			}
			if _, err := s.NextLeaf(); err != nil && err != io.EOF {
				return dst, err
			}
			continue
		}
		k := min(n, len(q))
		dst = append(dst, q[:k]...)
		s.outHead += k
		n -= k
	}
	return dst, nil
}

// Next returns the next sample record, performing stabs as needed. It
// returns io.EOF once every matching record has been emitted and consumed.
func (s *Stream) Next() (record.Record, error) {
	var one [1]record.Record
	out, err := s.AppendNext(one[:0], 1)
	if len(out) == 0 && err == nil {
		err = io.EOF
	}
	return one[0], err
}

// LendBatch returns everything emitted and not yet consumed, performing one
// stab first if that is nothing, and marks it consumed. The batch aliases
// the stream's working memory: it is the caller's to read and reorder until
// its next call on the stream, and must not be kept past that (or past
// Close). It returns io.EOF once the stream is exhausted.
func (s *Stream) LendBatch() ([]record.Record, error) {
	if len(s.queued()) == 0 {
		if _, err := s.NextLeaf(); err != nil {
			return nil, err
		}
	}
	batch := s.queued()
	s.outHead = len(s.out)
	return batch, nil
}

// NextBatch returns all records emitted by the next stab (possibly none) in
// a slice of its own. It returns io.EOF once the stream is exhausted.
func (s *Stream) NextBatch() ([]record.Record, error) {
	batch, err := s.LendBatch()
	if err != nil {
		return nil, err
	}
	return append([]record.Record(nil), batch...), nil
}

// NextLeaf performs one stab (Algorithm 3), reading at most one leaf from
// disk (exactly one under ReadEveryLeaf), and returns how many new sample
// records it emitted. It returns io.EOF once every leaf has been stabbed.
//
// Storage faults surface typed: a transient failure keeps the stab pending
// (call NextLeaf again to retry the same leaf — the sample sequence is
// unchanged from a fault-free run), while a hard failure returns a
// *DegradedError naming the lost leaf and sections, after which the stream
// continues over the surviving leaves.
func (s *Stream) NextLeaf() (int, error) {
	if s.done {
		return 0, io.EOF
	}
	if s.outHead >= len(s.out) {
		s.out, s.outHead = s.out[:0], 0
	}
	if !s.pending {
		s.shuttle()
	}
	leaf := s.path[s.t.h] - s.t.nLeaves // ordinal
	emitted, err := s.combineTuples(leaf)
	if s.pending = err != nil && retriable(err); s.pending {
		s.transientRetries++
		return 0, fmt.Errorf("core: leaf %d: %w", leaf, err)
	}
	s.done = s.remaining[1] == 0
	if err != nil {
		secs := s.lostSections()
		s.degradedLeaves++
		s.degradedSections += int64(len(secs))
		return 0, &DegradedError{Leaf: leaf, Sections: secs, Err: err}
	}
	s.leavesRead++
	s.outPeak = max(s.outPeak, len(s.out))
	return emitted, nil
}

// lostSections lists the 1-based section numbers of the current stab path
// whose regions overlap the query: the contributions a lost leaf would have
// made (the complement of combineTuples' useless-section skip).
func (s *Stream) lostSections() []int {
	var secs []int
	for sec := 0; sec < s.t.h; sec++ {
		if s.overlaps[s.path[sec+1]] {
			secs = append(secs, sec+1)
		}
	}
	return secs
}

// shuttle picks the next leaf to read: starting at the root it prefers, at
// every node, an undone child overlapping the query; between two eligible
// children it alternates via the node's next bit. It records the heap
// indices it passes into path and decrements their remaining counters.
func (s *Stream) shuttle() {
	t := s.t
	idx := int64(1)
	s.path[1] = 1
	s.remaining[1]--
	for level := 1; level < t.h; level++ {
		left, right := 2*idx, 2*idx+1
		goRight := s.remaining[left] == 0
		if !goRight && s.remaining[right] != 0 {
			// Weighted shuttle: each child's visit deficit relative to its
			// share of query-relevant leaves (equal, so a tie, when unweighted).
			var dl, dr int64
			if s.weight != nil {
				dl = int64(s.sent[left]) * int64(s.weight[right])
				dr = int64(s.sent[right]) * int64(s.weight[left])
			}
			switch {
			case s.overlaps[left] != s.overlaps[right]:
				goRight = s.overlaps[right]
			case dl != dr:
				goRight = dl > dr
			default:
				goRight = s.nextRight[idx]
				s.nextRight[idx] = !goRight
			}
		}
		idx = left
		if goRight {
			idx = right
		}
		if s.sent != nil {
			s.sent[idx]++
		}
		s.remaining[idx]--
		s.path[level+1] = idx
	}
}

// combineTuples implements Algorithm 4 for the leaf just retrieved: emit
// covering sections immediately, park partially overlapping sections, and
// flush every bucket group that has a batch for each required region. The
// read applies sigma_Q itself (readLeafInto), so every section arrives
// holding its matches only.
//
// Regions nest along the stab's path, so the sections whose region overlaps
// the query are sections 1..k for some k, and the rest are useless: k is
// known before the read, and only that prefix of the leaf is fetched. When
// the occupancy bits show that none of sections 1..k holds a key of the
// query, nothing is read and the combine runs on k empty sections, exactly
// as after a read that filtered them all away: the same empty batches are
// parked and the emitted sequence does not change.
func (s *Stream) combineTuples(leaf int64) (int, error) {
	t := s.t
	k := 0
	for k < t.h && s.overlaps[s.path[k+1]] {
		k++
	}
	var sections [][]record.Record
	var err error
	if s.readEvery || s.mayMatch(&t.leaves[leaf], k) {
		sections, err = t.readLeafInto(leaf, &s.dec, k, &s.q)
	} else {
		s.dec.sections = resized(s.dec.sections, k)
		sections = s.dec.sections
		clear(sections)
	}
	if err != nil {
		return 0, err
	}
	emitted := 0
	for sec := 0; sec < k; sec++ {
		recs := sections[sec]
		nodeIdx := s.path[sec+1]
		if s.covers[nodeIdx] {
			// The section's region covers the query: an immediately usable
			// random sample (combinability).
			s.out = append(s.out, recs...)
			emitted += len(recs)
			s.emitted += int64(len(recs))
			continue
		}
		// Partial overlap: park sigma_Q of the section under this region
		// (copied out of the decode arena at its exact size) and try to
		// append one batch per required region (appendability).
		s.buckets[sec][nodeIdx] = append(s.buckets[sec][nodeIdx], append([]record.Record(nil), recs...))
		s.buffered += len(recs)
		emitted += s.tryCombine(sec)
	}
	return emitted, nil
}

// mayMatch reports whether any of sections 1..k of leaf m can hold a record
// of the query: a section past the bitmapped ones can if it is not empty.
func (s *Stream) mayMatch(m *leafMeta, k int) bool {
	for sec := 0; sec < k; sec++ {
		if sec >= len(m.occ)/occWords {
			if m.secCounts[sec] != 0 {
				return true
			}
			continue
		}
		want := s.want[s.path[sec+1]*occWords:][:occWords]
		for w, bits := range m.occ[sec*occWords:][:occWords] {
			if bits&want[w] != 0 {
				return true
			}
		}
	}
	return false
}

// tryCombine appends one parked batch from every required region of the
// given section number, if all are present, and emits the result. It
// repeats until some region's bucket is empty, returning the number of
// records emitted.
func (s *Stream) tryCombine(sec int) int {
	emitted := 0
	for {
		ready := true
		for _, idx := range s.requiredAll[sec] {
			if len(s.buckets[sec][idx]) == 0 {
				ready = false
				break
			}
		}
		if !ready {
			return emitted
		}
		for _, idx := range s.requiredAll[sec] {
			q := s.buckets[sec][idx]
			batch := q[0]
			s.buckets[sec][idx] = q[1:]
			s.buffered -= len(batch)
			s.out = append(s.out, batch...)
			emitted += len(batch)
			s.emitted += int64(len(batch))
		}
	}
}
