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
// interleaver: the in-memory lists are exact and pre-shuffled (an
// exchangeable uniform sample of themselves), the base is estimated from
// internal-node counts. Deletes act as tombstones: a base draw that turns
// out tombstoned is suppressed and deducted from the base's remaining
// population — rejection from a uniform without-replacement sample of the
// superset yields a uniform without-replacement sample of the live subset —
// so counts stay honest and no deleted record is ever emitted.
type Stream struct {
	base     *core.Stream
	baseDone bool
	// rng shuffles each base stab's batch before it is served record by
	// record: a section's contents are a random subset, but within the
	// section records sit in the key-correlated order the tag sort left
	// them in, so an unshuffled batch cut mid-way (as the sharded K-way
	// merger does on every draw) would lean each prefix toward low keys.
	// nil serves the base in emission order: the unsharded view over an
	// empty write path, where nothing cuts a batch.
	rng *rand.Rand
	// baseQueue is the unserved tail of the current shuffled stab batch. It
	// is lent by the base stream (core.Stream.LendBatch) and shuffled where
	// it lies, so it is dropped before the base is asked for anything else.
	baseQueue []record.Record

	// merge interleaves the write path with the base; nil when the write
	// path was empty at open and the stream is the base alone.
	merge *interleave.Merger
	// lists holds the exact in-memory populations: index 0 the memview
	// draws, 1..L the per-level live matching inserts, each shuffled at
	// open. The base is source len(lists) of the merger.
	lists [][]record.Record
	// pending parks a base draw whose tombstone probe failed transiently,
	// so a retried draw resumes with the same record (nothing skipped).
	pending    [1]record.Record
	hasPending bool
	checker    *tombChecker
}

func newStream(parts *streamParts, base *core.Stream, rng *rand.Rand) *Stream {
	rem := make([]float64, len(parts.lists)+1)
	for i, l := range parts.lists {
		// Shuffling each exact component makes its draw order an
		// exchangeable uniform permutation, so emitting from the tail is a
		// uniform without-replacement draw.
		rng.Shuffle(len(l), func(a, b int) { l[a], l[b] = l[b], l[a] })
		rem[i] = float64(len(l))
	}
	rem[len(parts.lists)] = parts.baseEst
	return &Stream{
		merge:   interleave.New(rng, rem),
		lists:   parts.lists,
		base:    base,
		rng:     rng,
		checker: parts.checker,
	}
}

// baseIdx is the merger source index of the base tree's stream.
func (s *Stream) baseIdx() int { return len(s.lists) }

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

// Close ends the stream: it drops the write-path populations and lets the
// base tree recycle its working memory. Only the fault counters (and
// Buffered, now zero) may be read afterwards; callers serialize Close against
// draws.
func (s *Stream) Close() {
	s.baseQueue, s.lists, s.merge, s.checker = nil, nil, nil, nil
	s.base.Close()
}

// appendMerged appends the next sample of the merged stream to dst, or
// returns io.EOF.
func (s *Stream) appendMerged(dst []record.Record) ([]record.Record, error) {
	// A permanent write-path loss (dead or corrupt delta page, at open or
	// during a tombstone probe) surfaces exactly once as a typed
	// WritePathLostError; the stream then keeps serving whatever survived.
	if lerr := s.checker.takeLost(); lerr != nil {
		return dst, &WritePathLostError{Err: lerr}
	}
	for {
		for i := range s.lists {
			if len(s.lists[i]) == 0 {
				s.merge.Exhaust(i)
			}
		}
		if s.baseDone && !s.hasPending {
			s.merge.Exhaust(s.baseIdx())
		}
		src, picked := s.merge.Pick()
		if picked && src != s.baseIdx() {
			s.merge.Deduct(src)
			return s.pop(dst, src), nil
		}
		var ok bool
		var err error
		if dst, ok, err = s.appendLiveBase(dst); err != nil || ok {
			return dst, err
		}
		if picked {
			// Base ran dry earlier than estimated: zero it and re-pick.
			s.merge.Exhaust(s.baseIdx())
			continue
		}
		// Estimates undershot and the base (drained first, still vetting
		// tombstones) is dry: serve any leftover exact lists.
		for i := range s.lists {
			if len(s.lists[i]) > 0 {
				return s.pop(dst, i), nil
			}
		}
		return dst, io.EOF
	}
}

func (s *Stream) pop(dst []record.Record, i int) []record.Record {
	l := s.lists[i]
	s.lists[i] = l[:len(l)-1]
	return append(dst, l[len(l)-1])
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
