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

// Collect draws up to n records from next, stopping early at io.EOF: the
// Sample loop of every in-process stream.
func Collect(n int, next func() (record.Record, error)) ([]record.Record, error) {
	out := make([]record.Record, 0, min(n, 4096)) // the predicate may exhaust long before n
	for len(out) < n {
		rec, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}

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
	rng       *rand.Rand
	baseQueue []record.Record

	// merge interleaves the write path with the base; nil when the write
	// path was empty at open and the stream is the base alone.
	merge *interleave.Merger
	// lists holds the exact in-memory populations: index 0 the memview
	// draws, 1..L the per-level live matching inserts, each shuffled at
	// open. The base is source len(lists) of the merger.
	lists [][]record.Record
	// pending parks a base draw whose tombstone probe failed transiently,
	// so a retried Next resumes with the same record (nothing skipped).
	pending *record.Record
	checker *tombChecker
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

// Next returns the next sample of the merged stream, or io.EOF when every
// component is exhausted. Transient storage errors (from base leaf reads or
// tombstone probes) surface to the caller and a retried Next continues
// exactly where the fault struck.
func (s *Stream) Next() (record.Record, error) {
	if s.merge == nil {
		return s.nextBaseRaw()
	}
	// A permanent write-path loss (dead or corrupt delta page, at open or
	// during a tombstone probe) surfaces exactly once as a typed
	// WritePathLostError; the stream then keeps serving whatever survived.
	if lerr := s.checker.takeLost(); lerr != nil {
		return record.Record{}, &WritePathLostError{Err: lerr}
	}
	for {
		for i := range s.lists {
			if len(s.lists[i]) == 0 {
				s.merge.Exhaust(i)
			}
		}
		if s.baseDone && s.pending == nil {
			s.merge.Exhaust(s.baseIdx())
		}
		src, ok := s.merge.Pick()
		if !ok {
			// Estimates undershot: drain the base first (still vetting
			// tombstones), then any leftover exact lists.
			rec, ok, err := s.nextBase()
			if err != nil {
				return record.Record{}, err
			}
			if ok {
				return rec, nil
			}
			for i := range s.lists {
				if len(s.lists[i]) > 0 {
					return s.pop(i), nil
				}
			}
			return record.Record{}, io.EOF
		}
		if src != s.baseIdx() {
			s.merge.Deduct(src)
			return s.pop(src), nil
		}
		rec, ok, err := s.nextBase()
		if err != nil {
			return record.Record{}, err
		}
		if !ok {
			// Base ran dry earlier than estimated: zero it and re-pick.
			s.merge.Exhaust(s.baseIdx())
			continue
		}
		return rec, nil
	}
}

func (s *Stream) pop(i int) record.Record {
	l := s.lists[i]
	rec := l[len(l)-1]
	s.lists[i] = l[:len(l)-1]
	return rec
}

// nextBase returns the next live (non-tombstoned) base record. Tombstoned
// draws are consumed and deducted from the base population without being
// emitted. On error, the draw in flight is parked so a retry resumes with
// it.
func (s *Stream) nextBase() (record.Record, bool, error) {
	for {
		if s.pending == nil {
			if s.baseDone {
				return record.Record{}, false, nil
			}
			rec, err := s.nextBaseRaw()
			if err == io.EOF {
				s.baseDone = true
				return record.Record{}, false, nil
			}
			if err != nil {
				return record.Record{}, false, err
			}
			s.pending = &rec
		}
		dead, err := s.checker.deleted(s.pending.Seq)
		if err != nil {
			return record.Record{}, false, err
		}
		rec := *s.pending
		s.pending = nil
		s.merge.Deduct(s.baseIdx())
		if dead {
			continue
		}
		return rec, true, nil
	}
}

// nextBaseRaw returns the next base record, pulling stabs batch by batch
// and shuffling each batch so its serve order is exchangeable. A storage
// error mid-stab leaves the stab pending inside the base stream; the
// retried call resumes it with nothing skipped.
func (s *Stream) nextBaseRaw() (record.Record, error) {
	if s.rng == nil {
		return s.base.Next()
	}
	for len(s.baseQueue) == 0 {
		batch, err := s.base.NextBatch()
		if err != nil {
			return record.Record{}, err
		}
		s.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		s.baseQueue = batch
	}
	rec := s.baseQueue[0]
	s.baseQueue = s.baseQueue[1:]
	return rec, nil
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
