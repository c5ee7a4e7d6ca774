package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"sampleview/internal/par"
	"sampleview/internal/record"
	"sampleview/internal/splitmix"
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

	// readEvery is StreamOptions.ReadEveryLeaf.
	readEvery bool
	// needCalls counts need's evaluations (BenchmarkDrain reports them).
	needCalls int64

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

	// stabTime is what the stream's stab reads have been charged. Once it
	// reaches z times half the tree's scan cost, while no more than
	// maxKeepRecords of the inside records (those of the leaf regions the
	// query contains) can be unread, the stream lists the leaves a drain pass
	// would finish (list) and, stab by stab, keeps fit, price and left current
	// for what is still listed (unlist): fit bounds their matches, price is
	// the pass over those the fault plan cannot touch, from a cold head, and
	// left a cold stab of each of the others. weighed is set once the stream
	// decided for good whether to finish by the pass (weigh), and passed once
	// it took it: from then on a stab to a leaf the pass holds takes its
	// sections instead of reading.
	stabTime        time.Duration
	price, left     time.Duration
	fit             int
	weighed, passed bool
	z               float64 // the buy point, a share of the price (drawZ)
	inside          int64
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
	// idx (copies in the stream's parking chunks, the last one filling):
	// a list through batches, whose slots a stream takes off spare or
	// appends, so it parks in the slots its predecessors grew. ready[s]
	// counts the regions of requiredAll[s] holding one. Close empties every
	// queue, count and chunk, and the scratch keeps the chunks, in order, for
	// the next stream to fill.
	parked  []queue
	batches []batch
	spare   int32
	ready   []int
	chunks  [][]record.Record

	out []record.Record // emitted records, consumed from Stream.outHead

	// path is the stab being served: the heap indices of its root-to-leaf
	// traversal by level (path[1..h]). It survives a transient fault so the
	// retry re-reads the same leaf.
	path []int64

	// dec is the reusable leaf-decode arena and page buffer.
	dec leafDecoder

	// The drain pass's list of leaves (listed, ascending; walk[i] links
	// listed[i] into the pass and keeps its bound) and what it fetched:
	// sigma_Q of each held leaf's sections 1..k in heldSecs, their records in
	// held (never more than maxKeepRecords), and per leaf ordinal 1 + the
	// index of its first section in heldSecs, or 0 (heldAt, valid once
	// passed; while the stream weighs the pass, -1-i marks listed[i] until a
	// stab reaches it). needs[leaf] is need of each leaf no stab had reached
	// at listing, 0 for the others (empty until the stream lists). saved and
	// savedNext keep the shuttle's state while stabCost replays its route.
	listed    []int64
	walk      []link
	needs     []uint32
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
// A parked section is copied into a chunk of chunkRecords records. A stream
// fills at most chunkBound chunks, which its scratch object keeps for the next
// stream: up to maxFreeScratch times 1/recordsPerKept of a tree's records sit
// idle, sized to the paper's Figure 15 buffer (one stream on a 25% predicate
// parks up to 1.0-1.5% of its tree at once, results/bench41-compare.md).
const (
	maxFreeScratch = 4
	maxKeepRecords = 4096
	chunkRecords   = 512
	recordsPerKept = 64
)

// chunkBound is how many parking chunks one stream on t fills:
// count/recordsPerKept records, rounded up to whole chunks.
func (t *Tree) chunkBound() int {
	return int((t.count/recordsPerKept + chunkRecords - 1) / chunkRecords)
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
			sc.parked[idx] = queue{}
		}
		sc.requiredAll[sec], sc.ready[sec] = req[:0], 0
	}
	for i, c := range sc.chunks {
		sc.chunks[i] = c[:0]
	}
	sc.chunks = sc.chunks[:0]
	clear(sc.batches)
	sc.batches, sc.spare = sc.batches[:0], 0
	if cap(sc.batches) > maxKeepRecords {
		sc.batches = nil
	}
	clear(sc.heldSecs)
	sc.listed, sc.walk, sc.held, sc.heldSecs = sc.listed[:0], sc.walk[:0], sc.held[:0], sc.heldSecs[:0]
	sc.needs = sc.needs[:0]
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
	// A stream reading every leaf never weighs a pass.
	s := &Stream{t: t, q: q, scratch: t.getScratch(), readEvery: opts.ReadEveryLeaf, weighed: opts.ReadEveryLeaf, z: t.drawZ(q)}
	// remaining[i] = number of leaves below heap node i.
	for i := int64(1); i < 2*t.nLeaves; i++ {
		lvl := levelOf(i)
		s.remaining[i] = int32(int64(1) << uint(t.h-lvl))
	}
	if !q.Empty() {
		s.inside = s.computeRequired(1, 1, record.FullBox(t.dims), t.count)
	}
	s.queryLeaves = len(s.requiredAll[t.h-1])
	if t.count == 0 || q.Empty() {
		s.done = true
	}
	return s, nil
}

// computeRequired walks the tree regions top-down from node idx, which holds
// n records, and records which nodes overlap the query, per level and per
// node. It returns how many of the n lie in leaf regions the query contains:
// the exact counts of the maximal subtrees inside it.
func (s *Stream) computeRequired(idx int64, level int, box record.Box, n int64) int64 {
	if !box.Overlaps(s.q) {
		return 0
	}
	s.requiredAll[level-1] = append(s.requiredAll[level-1], idx)
	s.overlaps[idx], s.covers[idx] = true, box.ContainsBox(s.q)
	if idx < int64(len(s.t.sketchRegion)) {
		s.spans[idx] = quantizeSpan(s.t.sketchRegion[idx], s.q.Dim(0))
	}
	if level == s.t.h {
		if !s.q.ContainsBox(box) {
			n = 0
		}
		return n
	}
	split := s.t.splits[idx]
	return s.computeRequired(2*idx, level+1, s.t.childBox(box, level, split, false), s.t.cntL[idx]) +
		s.computeRequired(2*idx+1, level+1, s.t.childBox(box, level, split, true), s.t.cntR[idx])
}

// drawZ is the buy point of a stream over q on t, as a share of the pass's
// price: z in [0, 1) with density e^z/(e−1), drawn from a uniform that hashes
// t's count and q's bounds, so the same predicate reopened on the same tree
// draws the same z and no rng draw moves.
func (t *Tree) drawZ(q record.Box) float64 {
	h := uint64(t.count)
	for d := range q.Dims() {
		h = splitmix.Mix(splitmix.Mix(h^uint64(q.Dim(d).Lo)) ^ uint64(q.Dim(d).Hi))
	}
	return math.Log1p(float64(h>>11) / (1 << 53) * (math.E - 1))
}

// share is z times d.
func (s *Stream) share(d time.Duration) time.Duration { return time.Duration(s.z * float64(d)) }

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
// drain pass (weigh), and returns how many new sample records it emitted.
// It returns io.EOF once every leaf has been stabbed.
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
		if !s.weighed && len(s.listed) != 0 {
			s.weigh()
		}
		s.shuttle()
	}
	leaf := s.path[s.t.h] - s.t.nLeaves // ordinal
	if !s.weighed && len(s.listed) != 0 {
		s.unlist(leaf) // on a retry a no-op: the first attempt unlisted it
	}
	emitted, err := s.combineTuples(leaf)
	// Right after the read that got stabTime there, so what listing
	// allocates lands in a draw that reads.
	if !s.weighed && len(s.listed) == 0 && s.stabTime >= s.share(s.t.scanTime/2) && s.inside-s.emitted-int64(s.buffered) <= maxKeepRecords {
		s.list()
	}
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
			if s.overlaps[left] != s.overlaps[right] {
				goRight = s.overlaps[right]
			} else {
				goRight = s.nextRight[idx]
				s.nextRight[idx] = !goRight
			}
		}
		idx = left
		if goRight {
			idx = right
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
// the pass fetched, the same range read the same way, and they stay where
// the pass put them until Close, so they are parked without a copy.
func (s *Stream) combineTuples(leaf int64) (int, error) {
	t := s.t
	k := s.reach(leaf)
	held := s.passed && s.heldAt[leaf] != 0
	if held {
		at := int(s.heldAt[leaf] - 1)
		copy(s.dec.sections, s.heldSecs[at:at+k])
	} else if need := s.stabNeed(leaf, k); s.readEvery || need != 0 {
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
		if s.parked[nodeIdx].first == 0 {
			s.ready[sec]++
		}
		if !held {
			recs = s.park(recs)
		}
		s.push(nodeIdx, recs)
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
// the query, bit s for section s+1 (a sketched section if some of its keys
// fall in the query's span for its region, a later one if it is not empty;
// under ReadEveryLeaf, all k), and a bound at least the number of matches
// the stab reads under that need (those keys, or every record of a section
// without a sketch). It depends on the leaf and the query alone.
func (s *Stream) need(leaf int64, k int) (need uint32, bound int) {
	if s.readEvery {
		return 1<<k - 1, 0
	}
	s.needCalls++
	m := &s.t.leaves[leaf]
	keys := m.sketch
	for sec := 0; sec < k; sec++ {
		n := int(m.secCounts[sec])
		if sec < sketchSections {
			n, keys = s.spans[s.t.ancestor(leaf, sec)].count(keys[:n]), keys[n:]
		}
		if n != 0 {
			need |= 1 << sec
			bound += n
		}
	}
	return need, bound
}

// stabNeed is need(leaf, k), as list kept it once the stream listed, except
// on the retry of a stab that failed transiently (pending): list may have run
// after that stab's shuttle reached its leaf, and kept 0 for it.
func (s *Stream) stabNeed(leaf int64, k int) uint32 {
	if len(s.needs) == 0 || s.pending {
		need, _ := s.need(leaf, k)
		return need
	}
	return s.needs[leaf]
}

// list lists, once, the leaves a drain pass would finish: the unvisited
// leaves whose stab would read. It keeps the need of every unvisited leaf and
// the bound of every listed one, prices them as weigh compares them (see
// Stream.fit), and links each the fault plan cannot touch, the pass's
// fetches, to the one before it (walk). A stream with nothing to list never
// takes a pass.
func (s *Stream) list() {
	t := s.t
	s.heldAt = resized(s.heldAt, int(t.nLeaves))
	clear(s.heldAt)
	needs := resized(s.needs, int(t.nLeaves))
	clear(needs)
	// stabCost's copies, sized now: weigh may run in a draw that reads nothing.
	s.saved = slices.Grow(s.saved[:0], len(s.remaining))
	s.savedNext = slices.Grow(s.savedNext[:0], len(s.nextRight))
	prev := int32(-1)
	for leaf := int64(0); leaf < t.nLeaves; leaf++ {
		if s.remaining[t.nLeaves+leaf] == 0 {
			continue
		}
		need, bound := s.need(leaf, s.reach(leaf))
		if needs[leaf] = need; need == 0 {
			continue
		}
		lm := &t.leaves[leaf]
		end := t.leafEnd(lm)
		if end > t.f.NumPages() {
			s.weighed = true
			return // a directory Verify refuses
		}
		i := int32(len(s.listed))
		s.listed = append(s.listed, leaf)
		s.heldAt[leaf] = -1 - i
		s.fit += bound
		quiet := t.f.Quiet(lm.firstPage, end)
		s.walk = append(s.walk, link{prev: prev, next: -1, bound: int32(bound), quiet: quiet})
		if !quiet {
			s.left += t.f.Sim().ScanCost(end - lm.firstPage)
			continue
		}
		s.price += s.hop(prev, leaf) + s.fetch(leaf)
		if prev >= 0 {
			s.walk[prev].next = i
		}
		prev = i
	}
	s.needs = needs
	s.weighed = len(s.listed) == 0
}

// link ties listed[i], while it is listed and the pass would fetch it
// (quiet), to the listed leaves the pass would fetch just before and after
// it: their positions in listed, or -1. bound is listed[i]'s.
type link struct {
	prev, next, bound int32
	quiet             bool
}

// unlist drops leaf, which a stab just reached, from the listing and keeps
// fit, left and price current. A leaf x the pass would fetch leaves its walk
// between its neighbours a and b, which takes cost(a→x) + fetch(x) +
// cost(x→b) − cost(a→b) off the price: O(1) a stab, however long the list.
func (s *Stream) unlist(leaf int64) {
	i := -1 - s.heldAt[leaf]
	if i < 0 {
		return // not listed
	}
	s.heldAt[leaf] = 0
	w := s.walk[i]
	s.fit -= int(w.bound)
	if !w.quiet {
		lm := &s.t.leaves[leaf]
		s.left -= s.t.f.Sim().ScanCost(s.t.leafEnd(lm) - lm.firstPage)
		return
	}
	s.price -= s.hop(w.prev, leaf) + s.fetch(leaf)
	if w.prev >= 0 {
		s.walk[w.prev].next = w.next
	}
	if w.next >= 0 {
		b := s.listed[w.next]
		s.price += s.hop(w.prev, b) - s.hop(i, b)
		s.walk[w.next].prev = w.prev
	}
}

// hop is what the pass pays to bring the head from the end of listed[from]
// (from -1: from where it is not known) to leaf's first page: the seek a
// random read adds, or the gap's sequential transfers where they cost less.
func (s *Stream) hop(from int32, leaf int64) time.Duration {
	m := s.t.f.Sim().Model()
	seek := m.RandomRead - m.SequentialRead
	if from < 0 {
		return seek
	}
	gap := s.t.leaves[leaf].firstPage - s.t.leafEnd(&s.t.leaves[s.listed[from]])
	return min(time.Duration(gap)*m.SequentialRead, seek)
}

// fetch is what the pass's read of leaf transfers: every page of it.
func (s *Stream) fetch(leaf int64) time.Duration {
	lm := &s.t.leaves[leaf]
	return time.Duration(s.t.leafEnd(lm)-lm.firstPage) * s.t.f.Sim().Model().SequentialRead
}

// weigh buys the pass at the first stab where the stab reads have been
// charged z times the pass (price), at the pass's current price: randomized
// ski rental, whose buy point, drawn with density e^z/(e−1), pays in
// expectation at most e/(e−1) times the offline choice. The cold stabs of the
// listed leaves the pass leaves (left) are no part of the rent: they are paid
// whether or not the pass is bought.
// It takes the pass only if the listed matches surely fit maxKeepRecords and
// price + left costs no more than the stabs of the listed leaves would
// (stabCost, replayed only where its floor leaves it open); it makes that
// comparison once, and declines for good a pass it fails, or one left
// nothing to fetch. So a drain is never charged more than without the pass,
// and at any point at most 1 + 1/z times as much, plus a random read.
func (s *Stream) weigh() {
	if s.price == 0 { // a fetch costs a page at least: nothing left to fetch
		s.weighed = true
		return
	}
	if s.fit > maxKeepRecords || s.stabTime < s.share(s.price) {
		return
	}
	s.weighed = true
	if s.price+s.left > s.floor() && s.price+s.left > s.stabCost() {
		return
	}
	if cap(s.held) < s.fit {
		s.held = make([]record.Record, 0, s.fit)
	}
	s.pass()
	s.passed = true
}

// floor is at most stabCost, in one walk of the listing: every listed leaf
// no stab has reached transfers its pages, and each whose page predecessor
// is not one of them pays a seek, less one seek for the stabs' first read,
// which stabCost charges none (the head is not known).
func (s *Stream) floor() time.Duration {
	m := s.t.f.Sim().Model()
	seek := m.RandomRead - m.SequentialRead
	cost, head := -seek, int64(-1)
	for _, leaf := range s.listed {
		if s.heldAt[leaf] == 0 {
			continue
		}
		lm := &s.t.leaves[leaf]
		if lm.firstPage != head {
			cost += seek
		}
		cost += s.fetch(leaf)
		head = s.t.leafEnd(lm)
	}
	return cost
}

// stabCost is what the stabs of the listed leaves (heldAt marks) would be
// charged from here on without faults: the shuttle's remaining route,
// replayed over a copy of its state, each read's first page sequential only
// where the read before ended (the first one's, where the head is not known,
// always) and its other pages sequential.
func (s *Stream) stabCost() time.Duration {
	t, sc := s.t, s.scratch
	m := t.f.Sim().Model()
	sc.saved = append(sc.saved[:0], s.remaining...)
	sc.savedNext = append(sc.savedNext[:0], s.nextRight...)
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
	return cost
}

// pass walks one ascending sweep over the leaves still listed, fetching of
// each the pass would fetch the range its stab would, and holds the sections
// it fetched. It is charged price, or a seek less where the stab before it
// left the head on its first fetch's page: between two fetches it crosses
// the gap where that costs less than a seek (hop), and after the last it
// crosses nothing. The listed leaves the fault plan can touch it leaves to
// their own stabs, which meet the same faults at the same point of the
// stream as without the pass.
func (s *Stream) pass() {
	t := s.t
	m := t.f.Sim().Model()
	seek := m.RandomRead - m.SequentialRead
	prev := int32(-1)
	for i, leaf := range s.listed {
		live := s.heldAt[leaf] != 0
		if s.heldAt[leaf] = 0; !live || !s.walk[i].quiet {
			continue
		}
		lm := &t.leaves[leaf]
		if prev >= 0 && s.hop(prev, leaf) < seek {
			t.f.Cross(t.leafEnd(&t.leaves[s.listed[prev]]), lm.firstPage)
		}
		prev = int32(i)
		secs, err := t.readLeafInto(leaf, &s.dec, s.needs[leaf], &s.q)
		if err != nil {
			prev = -1
			continue
		}
		s.heldAt[leaf] = int32(len(s.heldSecs) + 1)
		for _, sec := range secs[:s.reach(leaf)] {
			n := len(s.held)
			s.held = append(s.held, sec...)
			s.heldSecs = append(s.heldSecs, s.held[n:len(s.held):len(s.held)])
		}
	}
}

// park returns a copy of recs, a section about to be parked, in the stream's
// last parking chunk, moving on to the next chunk its scratch kept (or making
// one) while the stream holds fewer than its tree's chunkBound. A section
// larger than a chunk, or one that fits in none, gets an exact-size copy.
func (s *Stream) park(recs []record.Record) []record.Record {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1])+len(recs) > chunkRecords {
		if n >= s.t.chunkBound() || len(recs) > chunkRecords {
			return append([]record.Record(nil), recs...)
		}
		if s.chunks = slices.Grow(s.chunks, 1)[:n+1]; s.chunks[n] == nil {
			s.chunks[n] = make([]record.Record, 0, chunkRecords)
		}
		n++
	}
	c := append(s.chunks[n-1], recs...)
	s.chunks[n-1] = c
	return c[len(c)-len(recs) : len(c) : len(c)]
}

// queue is a list of parked batches: 1 + the indices in scratch.batches of
// its first and last, or 0 for none.
type queue struct{ first, last int32 }

// batch is a parked batch and 1 + the index of the next in its list, or 0.
type batch struct {
	recs []record.Record
	next int32
}

// push queues recs last under heap node idx.
func (sc *scratch) push(idx int64, recs []record.Record) {
	i := sc.spare
	if i == 0 {
		sc.batches = append(sc.batches, batch{})
		i = int32(len(sc.batches))
	} else {
		sc.spare = sc.batches[i-1].next
	}
	sc.batches[i-1] = batch{recs: recs}
	if q := &sc.parked[idx]; q.first == 0 {
		q.first, q.last = i, i
	} else {
		sc.batches[q.last-1].next, q.last = i, i
	}
}

// pop takes the oldest batch queued under heap node idx, which has one.
func (sc *scratch) pop(idx int64) []record.Record {
	q := &sc.parked[idx]
	i := q.first
	b := sc.batches[i-1]
	if q.first = b.next; q.first == 0 {
		q.last = 0
	}
	sc.batches[i-1], sc.spare = batch{next: sc.spare}, i
	return b.recs
}

// tryCombine appends the oldest parked batch of every required region of
// the given section, for as long as every one has a batch, and emits the
// result, returning the number of records emitted.
func (s *Stream) tryCombine(sec int) int {
	emitted := 0
	for s.ready[sec] == len(s.requiredAll[sec]) {
		for _, idx := range s.requiredAll[sec] {
			batch := s.pop(idx)
			if s.parked[idx].first == 0 {
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
