package lsm

import (
	"errors"
	"io"
	"math/rand/v2"

	"sampleview/internal/core"
	"sampleview/internal/interleave"
	"sampleview/internal/pagefile"
	"sampleview/internal/par"
	"sampleview/internal/record"
)

// ErrStreamClosed is returned by a closed stream's Next and Sample. The
// in-process stream (shard.Stream, on either view kind) wraps this
// package's Stream and returns the sentinel; the message names the public
// package callers meet it in.
var ErrStreamClosed = errors.New("sampleview: stream closed")

// Stream is one partition's online sample: the base tree's stream, merged
// (when the write path held anything at open) with the write path's
// components — the in-memory buffer and every delta level — so that every
// prefix is a uniform without-replacement sample of the live matching set.
// Each component is one source of the hypergeometric merge operator
// (interleave.Merge), with a draw function of its own. The in-memory list is
// exact and shuffled at open. A level's population is its candidate set,
// sized exactly at open and read one run at a time, smallest first, each run
// shuffled as it is loaded: strata are assigned independently of everything
// a predicate can see, so that order is a uniform random permutation of the
// candidates. The base is estimated from internal-node counts. Whatever a
// draw turns up that is not a live match — a candidate outside the
// predicate, a tombstoned level insert or base record — is suppressed and
// deducted from its population: rejection from a uniform without-replacement
// sample of a superset yields a uniform without-replacement sample of the
// subset, so counts stay honest and nothing deleted is ever emitted.
type Stream struct {
	base *core.Stream
	// file is the base tree's file, pinned (as the checker's levels are)
	// until Close, so the view's maintenance can close its storage while the
	// stream reads on.
	file *pagefile.File
	// rng shuffles each base stab's batch before it is served record by
	// record: a section's contents are a random subset, but within the
	// section records sit in the key-correlated order the tag sort left
	// them in, so an unshuffled batch cut mid-way (as the sharded K-way
	// merger does on every draw) would lean each prefix toward low keys.
	// nil serves the base in emission order (the unsharded view over an empty
	// write path). That is not uniform: AppendSample(n), Next and each wire
	// batch of 256 cut a stab's batch, so early samples lean to low keys; the
	// fix waits on re-recording the stream digests svsuite pins.
	rng *rand.Rand
	// baseQueue is the unserved tail of the current shuffled stab batch. It
	// is lent by the base stream (core.Stream.LendBatch) and shuffled where
	// it lies, so it is dropped before the base is asked for anything else.
	baseQueue []record.Record

	// merge interleaves the write path with the base. Source 0 is mem, 1..L
	// the levels newest first, L+1 the base; over a write path that was empty
	// at open the base is its one source.
	merge   *interleave.Merger
	q       record.Box
	mem     []record.Record
	memIdle chan []record.Record
	levels  []levelSource
	// page is the one buffer every run load of the stream reads through,
	// borrowed from the first level's pool until Close.
	page []byte
	// pending parks a base draw whose tombstone probe failed transiently,
	// so a retried draw resumes with the same record (nothing skipped).
	pending    [1]record.Record
	hasPending bool
	checker    *tombChecker
}

// newStream merges the gathered write path with the base stream, loading
// each level's first run: the open absorbs that read's transient faults by
// re-reading on the same clock, since a caller can retry a draw against live
// stream state but has nothing to retry an open against — a fresh open forks
// a fresh clock, whose per-clock fault schedule would start over.
func newStream(parts *streamParts, base *core.Stream, file *pagefile.File, q record.Box, rng *rand.Rand) (*Stream, error) {
	// Shuffling the exact component makes its draw order an exchangeable
	// uniform permutation, so emitting from the tail is a uniform
	// without-replacement draw.
	rng.Shuffle(len(parts.mem), func(a, b int) { parts.mem[a], parts.mem[b] = parts.mem[b], parts.mem[a] })
	s := &Stream{
		q:       q,
		mem:     parts.mem,
		memIdle: parts.memIdle,
		levels:  parts.levels,
		base:    base,
		file:    file,
		rng:     rng,
		checker: parts.checker,
	}
	srcs := make([]interleave.Source, 0, len(parts.levels)+2)
	srcs = append(srcs, interleave.Source{Count: float64(len(parts.mem)), Draw: s.drawMem})
	for i := range s.levels {
		srcs = append(srcs, interleave.Source{Count: float64(s.levels[i].cand.n), Draw: func(dst []record.Record, _ int) ([]record.Record, float64, error) {
			return s.drawLevel(dst, i)
		}})
	}
	srcs = append(srcs, interleave.Source{Count: parts.baseEst, Leaves: base.QueryLeaves(), Draw: s.drawLiveBase})
	s.merge = interleave.Merge(rng, srcs)
	s.merge.Check = s.checker.takeLost
	for i := range s.levels {
		if s.levels[i].cand.n == 0 {
			continue
		}
		if err := s.loadRun(i, runRetryBudget); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// baseStream is the stream over an empty write path: the base alone, the
// merge's one source, its stab batches shuffled by shuffle (nil = served in
// emission order).
func baseStream(base *core.Stream, file *pagefile.File, shuffle *rand.Rand) *Stream {
	s := &Stream{base: base, file: file, rng: shuffle}
	s.merge = interleave.Merge(nil, []interleave.Source{{Draw: s.drawBase}})
	return s
}

// Close hands a stream's buffers on: a level keeps at most keepIdle idle run
// buffers and a view keepIdle in-memory match lists, and a buffer of more
// than maxIdleRecords records (core's bound) is dropped, so a full-domain
// drain pins no level-sized buffer. On ingest-mixed this cut
// alloc_kb_per_ksample to 0.62x for 1.01x rss_mb_p50 (results/bench40-compare.md).
const (
	keepIdle       = 2
	maxIdleRecords = 4096
)

// giveIdle hands buf, emptied, to list unless it is larger than lists keep.
func giveIdle(list chan []record.Record, buf []record.Record) {
	if c := cap(buf); c > 0 && c <= maxIdleRecords {
		par.Give(list, buf[:0])
	}
}

// loadRun reads level i's next run through the stream's buffer and shuffles
// its candidates into ready, which is empty when it is called (and nil until
// the level's first load takes a buffer off its idle list). A transient
// fault that outlasts attempts passes leaves the level as it was, so the
// retried draw reloads the same run. A permanent loss is recorded for the
// stream to surface once and costs the level the rest of its mass.
func (s *Stream) loadRun(i, attempts int) error {
	ls := &s.levels[i]
	if s.page == nil {
		s.page = s.levels[0].itf.File().PageBuf()
	}
	if ls.ready == nil {
		ls.ready = par.Take(ls.l.idle)
	}
	var err error
	ls.ready, err = ls.l.readRunRetry(ls.itf, ls.next, &ls.cand, s.page, ls.ready[:0], attempts)
	if err != nil {
		ls.ready = ls.ready[:0]
		if !hardLoss(err) {
			return err
		}
		s.checker.noteLost(err)
		ls.next = len(ls.l.runEnd)
		s.merge.Exhaust(i + 1)
		return nil
	}
	ls.next++
	s.rng.Shuffle(len(ls.ready), func(a, b int) { ls.ready[a], ls.ready[b] = ls.ready[b], ls.ready[a] })
	return nil
}

// AppendNext is the partition's batch draw: it appends the next n samples
// to the caller's dst, making per record exactly the decisions (and rng
// draws) n calls of Next would, and returns the extended slice. Fewer than n
// with a nil error means every component is exhausted. Transient storage
// errors (from base leaf reads or tombstone probes) surface with the records
// drawn before them, and a retried call continues exactly where the fault
// struck.
func (s *Stream) AppendNext(dst []record.Record, n int) ([]record.Record, error) {
	return s.merge.AppendNext(dst, n)
}

// Next returns the next sample of the stream, or io.EOF when every
// component is exhausted.
func (s *Stream) Next() (record.Record, error) {
	var one [1]record.Record
	out, err := s.AppendNext(one[:0], 1)
	if len(out) == 0 && err == nil {
		err = io.EOF
	}
	return one[0], err
}

// Close ends the stream: it hands the write-path buffers back to their lists,
// lets the base tree recycle its working memory, and releases the files it
// pinned, closing any a compaction or rebuild has since superseded. Callers
// serialize Close against draws and draw nothing afterwards. Idempotent.
func (s *Stream) Close() {
	giveIdle(s.memIdle, s.mem)
	for i := range s.levels {
		giveIdle(s.levels[i].l.idle, s.levels[i].ready)
	}
	if s.page != nil {
		s.levels[0].itf.File().PutPageBuf(s.page)
	}
	if s.checker != nil {
		release(s.checker.levels)
	}
	if s.file != nil {
		defer s.file.Close()
	}
	s.baseQueue, s.mem, s.levels, s.page, s.merge, s.checker, s.file = nil, nil, nil, nil, nil, nil, nil
	s.base.Close()
}

// drawMem draws the in-memory list's next record: its tail, the list being
// shuffled at open.
func (s *Stream) drawMem(dst []record.Record, _ int) ([]record.Record, float64, error) {
	if len(s.mem) == 0 {
		return dst, 0, nil
	}
	last := len(s.mem) - 1
	dst, s.mem = append(dst, s.mem[last]), s.mem[:last]
	return dst, 1, nil
}

// drawLevel draws level i's next candidate, loading the level's next run
// when the loaded one is spent, and appends it to dst if it is a live match.
// Either way the candidate leaves the level's population; a tombstoned one
// also returns a unit of mass to the base, whose estimate was reduced for a
// tombstone that turned out not to land there. A failed probe leaves the
// candidate in place for the retry.
func (s *Stream) drawLevel(dst []record.Record, i int) ([]record.Record, float64, error) {
	ls := &s.levels[i]
	for len(ls.ready) == 0 {
		if ls.next == len(ls.l.runEnd) {
			return dst, 0, nil
		}
		if err := s.loadRun(i, 1); err != nil {
			return dst, 0, err
		}
	}
	rec := &ls.ready[len(ls.ready)-1]
	live := s.q.ContainsRecord(rec)
	if live {
		dead, err := s.checker.deletedBefore(rec.Seq, i)
		if err != nil {
			return dst, 0, err
		}
		if dead {
			live = false
			s.merge.Restore(len(s.levels) + 1)
		}
	}
	ls.ready = ls.ready[:len(ls.ready)-1]
	if live {
		dst = append(dst, *rec)
	}
	return dst, 1, nil
}

// drawLiveBase appends the next live (non-tombstoned) base record to dst.
// Tombstoned draws are consumed and taken from the base population without
// being emitted. On error, the draw in flight stays parked so a retry
// resumes with it.
func (s *Stream) drawLiveBase(dst []record.Record, _ int) ([]record.Record, float64, error) {
	var took float64
	for {
		if !s.hasPending {
			drawn, err := s.appendBase(s.pending[:0], 1)
			if err != nil {
				return dst, took, err
			}
			if len(drawn) == 0 {
				return dst, 0, nil // dry: the merge zeroes the base's count
			}
			s.hasPending = true
		}
		dead, err := s.checker.deleted(s.pending[0].Seq)
		if err != nil {
			return dst, took, err
		}
		s.hasPending = false
		took++
		if !dead {
			return append(dst, s.pending[0]), took, nil
		}
	}
}

// drawBase is the base as the one source of a stream over an empty write
// path, where nothing can be tombstoned: it serves the whole request in bulk.
func (s *Stream) drawBase(dst []record.Record, n int) ([]record.Record, float64, error) {
	got, err := s.appendBase(dst, n)
	return got, float64(len(got) - len(dst)), err
}

// appendBase appends the next n base records to dst (fewer when the base is
// exhausted), pulling stabs batch by batch and shuffling each batch, where
// the base stream holds it, so its serve order is exchangeable. A storage
// error mid-stab leaves the stab pending inside the base stream; the retried
// call resumes it with nothing skipped.
func (s *Stream) appendBase(dst []record.Record, n int) ([]record.Record, error) {
	if s.rng == nil {
		return s.base.AppendNext(dst, n)
	}
	for n > 0 {
		if len(s.baseQueue) == 0 {
			batch, err := s.base.LendBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				return dst, err
			}
			s.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			s.baseQueue = batch
			continue
		}
		k := min(n, len(s.baseQueue))
		dst = append(dst, s.baseQueue[:k]...)
		s.baseQueue = s.baseQueue[k:]
		n -= k
	}
	return dst, nil
}

// QueryLeaves returns the number of base-tree leaf regions overlapping the
// query (see core.Stream.QueryLeaves); the write-path components hold no
// leaves.
func (s *Stream) QueryLeaves() int { return s.base.QueryLeaves() }

// LeavesRead returns the base stream's stabs so far (core.Stream.LeavesRead):
// once a drain pass holds its leaves, a stab need not read a page.
func (s *Stream) LeavesRead() int64 { return s.base.LeavesRead() }
