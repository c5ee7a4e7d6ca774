package lsm

import (
	"errors"
	"io"
	"math/rand/v2"

	"sampleview/internal/core"
	"sampleview/internal/interleave"
	"sampleview/internal/record"
)

// ErrStreamClosed is returned by a closed stream's Next and Sample. The
// unsharded and sharded streams both wrap this package's Stream and share
// the sentinel; the message names the public package callers meet it in.
var ErrStreamClosed = errors.New("sampleview: stream closed")

// Stream is one partition's online sample: the base tree's stream, merged
// (when the write path held anything at open) with the write path's
// components — the in-memory buffer and every delta level — so that every
// prefix is a uniform without-replacement sample of the live matching set.
// Each component is one draw population of the shared hypergeometric
// interleaver. The in-memory list is exact and shuffled at open. A level's
// population is its candidate set, sized exactly at open and read one run at
// a time, smallest first, each run shuffled as it is loaded: strata are
// assigned independently of everything a predicate can see, so that order
// is a uniform random permutation of the candidates. The base is estimated
// from internal-node counts. Whatever a draw turns up that is not a live
// match — a candidate outside the predicate, a tombstoned level insert or
// base record — is suppressed and deducted from its population: rejection
// from a uniform without-replacement sample of a superset yields a uniform
// without-replacement sample of the subset, so counts stay honest and
// nothing deleted is ever emitted.
type Stream struct {
	base     *core.Stream
	baseDone bool
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

	// merge interleaves the write path with the base; nil when the write
	// path was empty at open and the stream is the base alone. Source 0 is
	// mem, 1..L the levels newest first, L+1 the base.
	merge  *interleave.Merger
	q      record.Box
	mem    []record.Record
	levels []levelSource
	// page is the one buffer every run load of the stream reads through.
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
// a fresh clock, whose per-charger fault schedule would start over.
func newStream(parts *streamParts, base *core.Stream, q record.Box, rng *rand.Rand) (*Stream, error) {
	rem := make([]float64, len(parts.levels)+2)
	// Shuffling the exact component makes its draw order an exchangeable
	// uniform permutation, so emitting from the tail is a uniform
	// without-replacement draw.
	rng.Shuffle(len(parts.mem), func(a, b int) { parts.mem[a], parts.mem[b] = parts.mem[b], parts.mem[a] })
	rem[0] = float64(len(parts.mem))
	for i := range parts.levels {
		rem[i+1] = float64(parts.levels[i].cand.n)
	}
	rem[len(rem)-1] = parts.baseEst
	s := &Stream{
		merge:   interleave.New(rng, rem),
		q:       q,
		mem:     parts.mem,
		levels:  parts.levels,
		base:    base,
		rng:     rng,
		checker: parts.checker,
	}
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

// baseIdx is the merger source index of the base tree's stream.
func (s *Stream) baseIdx() int { return len(s.levels) + 1 }

// loadRun reads level i's next run through the stream's buffer and shuffles
// its candidates into ready, which is empty when it is called. A transient
// fault that outlasts attempts passes leaves the level as it was, so the
// retried draw reloads the same run. A permanent loss is recorded for the
// stream to surface once and costs the level the rest of its mass.
func (s *Stream) loadRun(i, attempts int) error {
	ls := &s.levels[i]
	if s.page == nil {
		s.page = make([]byte, ls.itf.File().PageSize())
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
	if s.merge == nil {
		return s.appendBase(dst, n)
	}
	for want := len(dst) + n; len(dst) < want; {
		var err error
		if dst, err = s.appendMerged(dst); err != nil {
			if err == io.EOF {
				err = nil
			}
			return dst, err
		}
	}
	return dst, nil
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

// Close ends the stream: it drops the write-path populations and the run
// buffer and lets the base tree recycle its working memory. Only the fault
// counters (and Buffered, now zero) may be read afterwards; callers
// serialize Close against draws.
func (s *Stream) Close() {
	s.baseQueue, s.mem, s.levels, s.page, s.merge, s.checker = nil, nil, nil, nil, nil, nil
	s.base.Close()
}

// appendMerged appends the next sample of the merged stream to dst, or
// returns io.EOF.
func (s *Stream) appendMerged(dst []record.Record) ([]record.Record, error) {
	for {
		// A permanent write-path loss (dead or corrupt delta page, in a run
		// load or a tombstone probe) surfaces exactly once as a typed
		// WritePathLostError; the stream then keeps serving whatever survived.
		if lerr := s.checker.takeLost(); lerr != nil {
			return dst, &WritePathLostError{Err: lerr}
		}
		if s.baseDone && !s.hasPending {
			s.merge.Exhaust(s.baseIdx())
		}
		src, picked := s.merge.Pick()
		var ok bool
		var err error
		switch {
		case picked && src == 0:
			s.merge.Deduct(0)
			last := len(s.mem) - 1
			dst, s.mem = append(dst, s.mem[last]), s.mem[:last]
			return dst, nil
		case picked && src < s.baseIdx():
			if dst, ok, err = s.appendLevel(dst, src-1); err != nil || ok {
				return dst, err
			}
			continue // rejected or lost: re-pick over the masses as they now stand
		}
		if dst, ok, err = s.appendLiveBase(dst); err != nil || ok {
			return dst, err
		}
		if !picked {
			// Every exact population is spent and the base, drained past its
			// estimate and still vetting tombstones, is dry.
			return dst, io.EOF
		}
		// Base ran dry earlier than estimated: zero it and re-pick.
		s.merge.Exhaust(s.baseIdx())
	}
}

// appendLevel draws level i's next candidate, loading the level's next run
// when the loaded one is spent, and appends it to dst if it is a live match.
// Either way the candidate leaves the level's population; a tombstoned one
// also returns a unit of mass to the base, whose estimate was reduced for a
// tombstone that turned out not to land there. A failed probe leaves the
// candidate in place for the retry.
func (s *Stream) appendLevel(dst []record.Record, i int) ([]record.Record, bool, error) {
	ls := &s.levels[i]
	for len(ls.ready) == 0 {
		if ls.next == len(ls.l.runEnd) {
			s.merge.Exhaust(i + 1)
			return dst, false, nil
		}
		if err := s.loadRun(i, 1); err != nil {
			return dst, false, err
		}
	}
	rec := &ls.ready[len(ls.ready)-1]
	live := s.q.ContainsRecord(rec)
	if live {
		dead, err := s.checker.deletedBefore(rec.Seq, i)
		if err != nil {
			return dst, false, err
		}
		if dead {
			live = false
			s.merge.Restore(s.baseIdx())
		}
	}
	s.merge.Deduct(i + 1)
	ls.ready = ls.ready[:len(ls.ready)-1]
	if live {
		dst = append(dst, *rec)
	}
	return dst, live, nil
}

// appendLiveBase appends the next live (non-tombstoned) base record to dst
// and reports whether there was one. Tombstoned draws are consumed and
// deducted from the base population without being emitted. On error, the
// draw in flight stays parked so a retry resumes with it.
func (s *Stream) appendLiveBase(dst []record.Record) ([]record.Record, bool, error) {
	for {
		if !s.hasPending {
			if s.baseDone {
				return dst, false, nil
			}
			drawn, err := s.appendBase(s.pending[:0], 1)
			if err != nil {
				return dst, false, err
			}
			if len(drawn) == 0 {
				s.baseDone = true
				return dst, false, nil
			}
			s.hasPending = true
		}
		dead, err := s.checker.deleted(s.pending[0].Seq)
		if err != nil {
			return dst, false, err
		}
		s.hasPending = false
		s.merge.Deduct(s.baseIdx())
		if dead {
			continue
		}
		return append(dst, s.pending[0]), true, nil
	}
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

// TransientRetries returns the base stream's count of stabs re-driven
// after a transient fault.
func (s *Stream) TransientRetries() int64 { return s.base.TransientRetries() }

// DegradedLeaves returns how many base leaves this stream permanently lost.
func (s *Stream) DegradedLeaves() int64 { return s.base.DegradedLeaves() }

// DegradedSections returns the query-overlapping sections of lost leaves.
func (s *Stream) DegradedSections() int64 { return s.base.DegradedSections() }

// Buffered returns the records parked in the base stream's combine buckets
// plus the tail of the current shuffled stab batch.
func (s *Stream) Buffered() int { return s.base.Buffered() + len(s.baseQueue) }
