package core

import (
	"fmt"
	"io"
	"slices"
	"time"

	"sampleview/internal/par"
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
	// fault accounting: stabs retried after a transient failure the caller
	// saw, leaves permanently lost and the query sections lost with them.
	transientRetries int64
	degradedLeaves   int64
	degradedSections int64

	// stabTime is what the stream's stab reads have been charged. weighed is
	// set once the stream has weighed finishing by one pass (weighPass), and
	// passed once it took it: from then on a stab to a leaf the pass holds
	// takes its sections instead of reading.
	stabTime        time.Duration
	weighed, passed bool
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
	// spans[idx] is the query's dimension-0 range quantized into heap node
	// idx's sketch region, for overlapping nodes whose sections keep sketches.
	spans []keySpan

	// parked[idx] queues, oldest first, the batches parked under heap node
	// idx (copies in the stream's parking chunks, the last one filling);
	// ready[s] counts the regions of requiredAll[s] holding one. Close drops
	// them all, every queue nil and every count 0, and hands the chunks to
	// the tree's list.
	parked [][][]record.Record
	ready  []int
	chunks [][]record.Record

	out []record.Record // emitted records, consumed from Stream.outHead

	// path is the stab being served: the heap indices of its root-to-leaf
	// traversal by level (path[1..h]). It survives a transient fault so the
	// retry re-reads the same leaf.
	path []int64

	// dec is the reusable leaf-decode arena and page buffer.
	dec leafDecoder

	// The drain pass's list of leaves (listed) and what it fetched: sigma_Q
	// of each held leaf's sections 1..k in heldSecs, their records in held
	// (never more than maxKeepRecords), and per leaf ordinal 1 + the index
	// of its first section in heldSecs, or 0 (heldAt, valid once passed;
	// -1 marks a listed leaf while the stream weighs the pass). saved and
	// savedNext keep the shuttle's state while stabCost replays its route.
	listed    []int64
	held      []record.Record
	heldSecs  [][]record.Record
	heldAt    []int32
	saved     []int32
	savedNext []bool
}

// Retained scratch is bounded by constants: a tree keeps at most
// maxFreeScratch idle objects, and an object whose stream needed more than
// maxKeepRecords records in a buffer (one unusually wide combine) sheds that
// buffer before it is kept: judged by out's high-water length and the arena's
// exact size, never by where append's growth policy rounded a capacity to.
//
// A parked section is copied into a chunk of chunkRecords records, and a tree
// keeps idle chunks holding at most 1/recordsPerKept of its records: a bound
// per tree and by its size, so K shard trees keep what one tree would. It is
// sized to the paper's Figure 15 buffer: one stream on a 25% predicate parks
// up to 1.0-1.5% of its tree at once (results/bench41-compare.md).
const (
	maxFreeScratch = 4
	maxKeepRecords = 4096
	chunkRecords   = 512
	recordsPerKept = 64
)

// newChunkList makes the idle-chunk list of a tree of count records.
func newChunkList(count int64) chan []record.Record {
	return make(chan []record.Record, max(1, count/recordsPerKept/chunkRecords))
}

// getScratch takes a scratch object off the tree's free list (or makes one)
// and sizes and resets its tables for a new stream over t.
func (t *Tree) getScratch() *scratch {
	sc := par.Take(t.free)
	if sc == nil {
		sc = new(scratch)
	}
	sc.nextRight = resized(sc.nextRight, int(t.nLeaves))
	clear(sc.nextRight)
	sc.remaining = resized(sc.remaining, int(2*t.nLeaves))
	sc.overlaps = resized(sc.overlaps, int(2*t.nLeaves))
	clear(sc.overlaps)
	sc.covers = resized(sc.covers, int(2*t.nLeaves))
	clear(sc.covers)
	sc.spans = resized(sc.spans, len(t.sketchRegion))
	sc.requiredAll = resized(sc.requiredAll, t.h)
	sc.parked = resized(sc.parked, int(2*t.nLeaves))
	sc.ready = resized(sc.ready, t.h)
	sc.out = sc.out[:0]
	sc.path = resized(sc.path, t.h+1)
	sc.dec.sections = resized(sc.dec.sections, t.h)
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
	for sec, req := range sc.requiredAll {
		for _, idx := range req {
			sc.parked[idx] = nil
		}
		sc.requiredAll[sec], sc.ready[sec] = req[:0], 0
	}
	for _, c := range sc.chunks {
		par.Give(s.t.chunks, c[:0])
	}
	clear(sc.chunks)
	sc.chunks = sc.chunks[:0]
	clear(sc.heldSecs)
	sc.listed, sc.held, sc.heldSecs = sc.listed[:0], sc.held[:0], sc.heldSecs[:0]
	if s.outPeak > maxKeepRecords {
		sc.out = nil
	}
	if cap(sc.dec.arena) > maxKeepRecords {
		sc.dec.arena = nil
	}
	par.Give(s.t.free, sc)
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
	// default a stab whose sections' key sketches show no key of the query
	// skips the read. The records, their order and the stabs are the
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
	if idx < int64(len(s.t.sketchRegion)) {
		s.spans[idx] = quantizeSpan(s.t.sketchRegion[idx], s.q.Dim(0))
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
// disk (exactly one under ReadEveryLeaf) unless it first makes the stream's
// drain pass (weighPass), and returns how many new sample records it
// emitted. It returns io.EOF once every leaf has been stabbed.
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
		if !s.weighed && !s.readEvery && s.stabTime >= s.t.scanTime {
			s.weighed = true
			s.weighPass()
		}
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
// flush every section whose required regions all have a batch. The read
// applies sigma_Q itself (readLeafInto), so every section arrives holding
// its matches only.
//
// Regions nest along the stab's path, so the sections whose region overlaps
// the query are sections 1..k for some k, and the rest are useless. Of
// those, the read fetches only the range from the first to the last section
// the key sketches and counts cannot rule out (need). When they rule out
// all k nothing is read and the combine runs on k empty sections, exactly as
// after a read that filtered them all away: the emitted sequence is the same.
// A leaf the drain pass holds is not read either: its sections are the ones
// the pass fetched, the same range read the same way.
func (s *Stream) combineTuples(leaf int64) (int, error) {
	t := s.t
	k := s.reach(leaf)
	if s.passed && s.heldAt[leaf] != 0 {
		at := int(s.heldAt[leaf] - 1)
		copy(s.dec.sections, s.heldSecs[at:at+k])
	} else if need := s.need(leaf, k); s.readEvery || need != 0 {
		start := t.f.Now()
		_, err := t.readLeafInto(leaf, &s.dec, need, &s.q)
		s.stabTime += t.f.Now() - start
		if err != nil {
			return 0, err
		}
	} else {
		clear(s.dec.sections[:k])
	}
	emitted := 0
	for sec := 0; sec < k; sec++ {
		recs := s.dec.sections[sec]
		nodeIdx := s.path[sec+1]
		if s.covers[nodeIdx] {
			// The section's region covers the query: an immediately usable
			// random sample (combinability).
			s.out = append(s.out, recs...)
			emitted += len(recs)
			s.emitted += int64(len(recs))
			continue
		}
		// Partial overlap: park a copy under this region and append one
		// batch per required region while each has one.
		if len(s.parked[nodeIdx]) == 0 {
			s.ready[sec]++
		}
		s.parked[nodeIdx] = append(s.parked[nodeIdx], s.park(recs))
		s.buffered += len(recs)
		emitted += s.tryCombine(sec)
	}
	return emitted, nil
}

// reach returns k: the stab to leaf can use its sections 1..k, those whose
// region (the leaf's ancestor at that level) overlaps the query.
func (s *Stream) reach(leaf int64) int {
	k := 0
	for k < s.t.h && s.overlaps[s.t.ancestor(leaf, k)] {
		k++
	}
	return k
}

// need returns the sections among 1..k of leaf that can hold a record of
// the query, bit s for section s+1: a sketched section if one of its keys
// falls in the query's span for its region, a later one if it is not empty;
// under ReadEveryLeaf, all k. It depends on the leaf and the query alone.
func (s *Stream) need(leaf int64, k int) uint32 {
	if s.readEvery {
		return 1<<k - 1
	}
	var need uint32
	m := &s.t.leaves[leaf]
	keys := m.sketch
	for sec := 0; sec < k; sec++ {
		n := int(m.secCounts[sec])
		can := n != 0
		if sec < sketchSections {
			can, keys = s.spans[s.t.ancestor(leaf, sec)].meets(keys[:n]), keys[n:]
		}
		if can {
			need |= 1 << sec
		}
	}
	return need
}

// bound is at least the number of matches the stab to leaf reads under
// need: per section it names, the sketch keys inside the query's span, or
// every record of a section without a sketch.
func (s *Stream) bound(leaf int64, k int, need uint32) int {
	m := &s.t.leaves[leaf]
	n, keys := 0, m.sketch
	for sec := 0; sec < k; sec++ {
		c := int(m.secCounts[sec])
		switch {
		case sec < sketchSections:
			if need>>sec&1 != 0 {
				n += s.spans[s.t.ancestor(leaf, sec)].count(keys[:c])
			}
			keys = keys[c:]
		case need>>sec&1 != 0:
			n += c
		}
	}
	return n
}

// weighPass decides, once, whether the stream finishes by one sequential
// pass. It runs before the first stab after the stab reads have been charged
// as much as a pass over the tree's leaf data region: the 2-competitive
// ski-rental rule, which pays for the pass once the stabs have cost as much.
// It lists the unvisited leaves whose stab would read and takes the pass only
// if their matches surely fit maxKeepRecords and the pass (priced by its own
// walk), plus a stab from a cold head of every listed leaf it must leave,
// costs no more than their stabs would (stabCost). So a drain is never
// charged more than without the pass, and at any point at most twice as much.
func (s *Stream) weighPass() {
	t := s.t
	s.heldAt = resized(s.heldAt, int(t.nLeaves))
	clear(s.heldAt)
	s.listed = s.listed[:0]
	fit := 0
	var left time.Duration
	for leaf := int64(0); leaf < t.nLeaves; leaf++ {
		if s.remaining[t.nLeaves+leaf] == 0 {
			continue
		}
		k := s.reach(leaf)
		need := s.need(leaf, k)
		if need == 0 {
			continue
		}
		lm := &t.leaves[leaf]
		end := t.leafEnd(lm)
		if end > t.f.NumPages() {
			return // a directory Verify refuses
		}
		s.listed = append(s.listed, leaf)
		s.heldAt[leaf] = -1
		fit += s.bound(leaf, k, need)
		if !t.f.Quiet(lm.firstPage, end) {
			left += t.f.Sim().ScanCost(end - lm.firstPage)
		}
	}
	if len(s.listed) == 0 || fit > maxKeepRecords || s.pass(false)+left > s.stabCost() {
		return
	}
	if cap(s.held) < fit {
		s.held = make([]record.Record, 0, fit)
	}
	clear(s.heldAt)
	s.pass(true)
	s.passed = true
}

// stabCost is what the stabs of the listed leaves (heldAt -1) would be
// charged from here on without faults: the shuttle's remaining route,
// replayed over a copy of its state, each read's first page sequential only
// where the read before ended (the first one's, where the head is not known,
// always) and its other pages sequential.
func (s *Stream) stabCost() time.Duration {
	t, sc := s.t, s.scratch
	m := t.f.Sim().Model()
	sc.saved = append(sc.saved[:0], s.remaining...)
	sc.savedNext = append(sc.savedNext[:0], s.nextRight...)
	sent := slices.Clone(s.sent)
	var cost time.Duration
	head := int64(-1)
	for s.remaining[1] != 0 {
		s.shuttle()
		leaf := s.path[t.h] - t.nLeaves
		if s.heldAt[leaf] == 0 {
			continue
		}
		lm := &t.leaves[leaf]
		end := t.leafEnd(lm)
		cost += time.Duration(end-lm.firstPage) * m.SequentialRead
		if head >= 0 && lm.firstPage != head {
			cost += m.RandomRead - m.SequentialRead
		}
		head = end
	}
	copy(s.remaining, sc.saved)
	copy(s.nextRight, sc.savedNext)
	copy(s.sent, sent)
	return cost
}

// pass walks one ascending sweep over the listed leaves and returns what it
// is charged without faults. Of each leaf the fault plan cannot touch it
// fetches the range the leaf's stab would, from a cold head first; the other
// leaves it leaves to their own stabs, which meet the same faults at the same
// point of the stream as without the pass. Between two fetches it crosses the
// gap only where that costs less than the seek a random read adds, and after
// the last it crosses nothing. Only with hold does it charge the sweep and
// hold the sections it fetched; without, it prices the same walk.
func (s *Stream) pass(hold bool) time.Duration {
	t := s.t
	m := t.f.Sim().Model()
	seek := m.RandomRead - m.SequentialRead
	var cost time.Duration
	head := int64(-1)
	for _, leaf := range s.listed {
		lm := &t.leaves[leaf]
		end := t.leafEnd(lm)
		if !t.f.Quiet(lm.firstPage, end) {
			continue
		}
		gap := time.Duration(lm.firstPage-head) * m.SequentialRead
		if head < 0 || gap >= seek {
			gap = seek
		} else if hold {
			t.f.Cross(head, lm.firstPage)
		}
		cost += gap + time.Duration(end-lm.firstPage)*m.SequentialRead
		if head = end; !hold {
			continue
		}
		k := s.reach(leaf)
		secs, err := t.readLeafInto(leaf, &s.dec, s.need(leaf, k), &s.q)
		if err != nil {
			head = -1
			continue
		}
		s.heldAt[leaf] = int32(len(s.heldSecs) + 1)
		for _, sec := range secs[:k] {
			n := len(s.held)
			s.held = append(s.held, sec...)
			s.heldSecs = append(s.heldSecs, s.held[n:len(s.held):len(s.held)])
		}
	}
	return cost
}

// park returns a copy of recs, a section about to be parked, in the stream's
// last parking chunk, taking another from the tree's list (or making one)
// while the stream holds fewer than the list keeps. A section larger than a
// chunk, or one that fits in none, gets an exact-size copy.
func (s *Stream) park(recs []record.Record) []record.Record {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1])+len(recs) > chunkRecords {
		if n >= cap(s.t.chunks) || len(recs) > chunkRecords {
			return append([]record.Record(nil), recs...)
		}
		c := par.Take(s.t.chunks)
		if c == nil {
			c = make([]record.Record, 0, chunkRecords)
		}
		s.chunks, n = append(s.chunks, c), n+1
	}
	c := append(s.chunks[n-1], recs...)
	s.chunks[n-1] = c
	return c[len(c)-len(recs) : len(c) : len(c)]
}

// tryCombine appends the oldest parked batch of every required region of
// the given section, for as long as every one has a batch, and emits the
// result, returning the number of records emitted.
func (s *Stream) tryCombine(sec int) int {
	emitted := 0
	for s.ready[sec] == len(s.requiredAll[sec]) {
		for _, idx := range s.requiredAll[sec] {
			q := s.parked[idx]
			batch := q[0]
			if s.parked[idx] = q[1:]; len(q) == 1 {
				s.ready[sec]--
			}
			s.buffered -= len(batch)
			s.out = append(s.out, batch...)
			emitted += len(batch)
			s.emitted += int64(len(batch))
		}
	}
	return emitted
}
