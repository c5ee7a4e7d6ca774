package shard

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"sampleview/internal/core"
	"sampleview/internal/interleave"
	"sampleview/internal/iosim"
	"sampleview/internal/lsm"
	"sampleview/internal/record"
)

// ErrStreamClosed is returned by Stream.Next (and Sample) after Close: the
// one sentinel every in-process stream shares.
var ErrStreamClosed = lsm.ErrStreamClosed

// ShardError wraps an error from one shard's stream with the shard index,
// so callers can tell which partition faulted while the merged stream
// keeps serving the others. It unwraps to the underlying error, so the
// IsTransient / IsDegraded predicates see through it.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard: shard %d: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// sub is one shard's contribution to a merged stream: the shard's leaf
// stream and what the merger needs to weigh it.
type sub struct {
	leaf *lsm.Stream
	// est0 and queryLeaves size the Reduce applied when the shard loses a
	// leaf: one lost leaf forfeits roughly est0/queryLeaves matching records.
	est0        float64
	queryLeaves int
	done        bool
}

// Stream is an online random sample over a sharded view: the K per-shard
// streams, interleaved by remaining matching count, so every prefix is a
// uniform without-replacement sample of the full matching set.
//
// Safe for concurrent use the same way the unsharded stream is: a private
// lock serializes draws, Close is idempotent and may race with Next, and
// each shard's I/O lands on a clock forked from that shard's own disk.
type Stream struct {
	mu     sync.Mutex
	merge  *interleave.Merger // guarded by mu
	subs   []*sub             // guarded by mu (clocks retained after Close)
	clocks []*iosim.Clock
	closed bool // guarded by mu
	// fault accounting, frozen by Close so Stats stays valid after it.
	retries  int64        // guarded by mu
	degLeaf  int64        // guarded by mu
	degSec   int64        // guarded by mu
	degShard map[int]bool // guarded by mu
}

// Query opens a merged online sample stream for predicate q. Records
// appended after the stream was created do not join it.
func (v *View) Query(q record.Box) (*Stream, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.queryLocked(q, v.rng)
}

// QuerySeeded is Query with an explicit stream seed: every random draw the
// merged stream needs — per-shard batch shuffles, write-path merge rngs and
// the K-way hypergeometric interleave — is derived from seed alone, in a
// fixed order, instead of from the view's shared rng. Two sharded views
// holding byte-identical shard storage produce byte-identical record
// sequences for the same (query, seed), which is what lets the fleet tier
// resume a stream on another replica at an exact position.
func (v *View) QuerySeeded(q record.Box, seed uint64) (*Stream, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	src := rand.New(rand.NewPCG(seed^0x51ee0c0de, seed*0x9e3779b97f4a7c15+1))
	return v.queryLocked(q, src)
}

// queryLocked opens the merged stream, drawing every rng seed from src in a
// fixed per-shard order: the shard's batch shuffle, then (only over a
// non-empty write path) its merge rng; the K-way interleave last. Callers
// hold v.mu.
func (v *View) queryLocked(q record.Box, src *rand.Rand) (*Stream, error) {
	seeded := func() *rand.Rand { return rand.New(rand.NewPCG(src.Uint64(), src.Uint64())) }
	subs := make([]*sub, len(v.shards))
	clocks := make([]*iosim.Clock, len(v.shards))
	rem := make([]float64, len(v.shards))
	for i, sp := range v.shards {
		ck := v.farm.Disk(i).Fork()
		est, err := sp.EstimateCount(q)
		var ls *lsm.Stream
		if err == nil {
			// The tree's uniformity guarantee is per stab batch, and the K-way
			// merger cuts batches mid-way on every draw, so each shard's
			// batches are shuffled before they are served record by record.
			ls, err = sp.OpenStream(ck, q, seeded(), seeded)
		}
		if err != nil {
			(&Stream{subs: subs[:i]}).Close() // unpin the shards opened so far
			return nil, fmt.Errorf("shard: opening shard %d stream: %w", i, err)
		}
		subs[i] = &sub{leaf: ls, est0: est, queryLeaves: ls.QueryLeaves()}
		clocks[i], rem[i] = ck, est
	}
	return &Stream{
		merge:    interleave.New(seeded(), rem),
		subs:     subs,
		clocks:   clocks,
		degShard: make(map[int]bool),
	}, nil
}

// AppendSample is the merged stream's batch draw: under one acquisition of
// the stream lock it appends the next n sample records to dst — a slice the
// caller owns; the stream keeps no reference to it — making per record
// exactly the decisions, in the same rng order, that n calls of Next would,
// and returns the extended slice. Fewer than n records with a nil error
// means the predicate is exhausted across all shards; after Close the error
// is ErrStreamClosed.
//
// Fault semantics mirror the unsharded stream, per shard: a transient
// fault surfaces as a *ShardError wrapping a transient error (retry; no
// records are skipped), and a dead shard surfaces one *ShardError
// wrapping a *DegradedError per lost leaf while the merged stream keeps
// drawing from the surviving shards — with the dead shard's remaining
// weight shaved so it cannot soak up draws it can no longer serve. The
// records drawn before an error are returned with it.
func (s *Stream) AppendSample(dst []record.Record, n int) ([]record.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return dst, ErrStreamClosed
	}
	for want := len(dst) + n; len(dst) < want; {
		var err error
		if dst, err = s.appendOneLocked(dst); err != nil {
			if err == io.EOF {
				err = nil
			}
			return dst, err
		}
	}
	return dst, nil
}

// appendOneLocked appends the merged stream's next record to dst, or
// returns io.EOF. Callers hold mu.
func (s *Stream) appendOneLocked(dst []record.Record) ([]record.Record, error) {
	for {
		for i, u := range s.subs {
			if u.done {
				s.merge.Exhaust(i)
			}
		}
		idx, ok := s.merge.Pick()
		if !ok {
			// Estimates hit zero; drain any shard that still holds records
			// (interpolated counts may undershoot).
			for i := range s.subs {
				if got, err := s.popLocked(dst, i); err != nil || len(got) > len(dst) {
					return got, err
				}
			}
			return dst, io.EOF
		}
		got, err := s.popLocked(dst, idx)
		if err != nil {
			return dst, err
		}
		if len(got) > len(dst) {
			s.merge.Deduct(idx)
			return got, nil
		}
		s.merge.Exhaust(idx)
	}
}

// popLocked appends the next record of shard i's stream to dst; dst comes
// back unextended when the shard is exhausted. Degraded errors adjust the
// merge weights before surfacing. Callers hold mu.
func (s *Stream) popLocked(dst []record.Record, i int) ([]record.Record, error) {
	u := s.subs[i]
	if u.done {
		return dst, nil
	}
	got, err := u.leaf.AppendNext(dst, 1)
	if err != nil {
		var de *core.DegradedError
		var wl *lsm.WritePathLostError
		switch {
		case errors.As(err, &de):
			s.degLeaf++
			s.degSec += int64(len(de.Sections))
			s.degShard[i] = true
			if u.queryLeaves > 0 {
				s.merge.Reduce(i, u.est0/float64(u.queryLeaves))
			}
		case errors.As(err, &wl):
			// The shard's write path lost a delta region for good: the
			// shard keeps serving what survived, degraded (surfaced once
			// per stream by the lsm layer).
			s.degShard[i] = true
		default:
			s.retries++
		}
		return dst, &ShardError{Shard: i, Err: err}
	}
	u.done = len(got) == len(dst)
	return got, nil
}

// Next returns the next sample record, io.EOF when the predicate is
// exhausted across all shards, or ErrStreamClosed after Close.
func (s *Stream) Next() (record.Record, error) {
	var one [1]record.Record
	out, err := s.AppendSample(one[:0], 1)
	if len(out) == 0 && err == nil {
		err = io.EOF
	}
	return one[0], err
}

// Sample collects up to n records (fewer if the predicate exhausts first)
// into a slice of its own.
func (s *Stream) Sample(n int) ([]record.Record, error) {
	// The predicate may exhaust long before a large n.
	return s.AppendSample(make([]record.Record, 0, min(n, 4096)), n)
}

// Close releases the per-shard sampling state, handing each shard tree its
// stream's working memory back. Idempotent and safe to call concurrently
// with draws; Stats remains valid after Close.
func (s *Stream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, u := range s.subs {
		u.leaf.Close()
	}
	s.closed = true
	s.merge = nil
	s.subs = nil
	return nil
}

// SimNow returns the stream's elapsed simulated time: the maximum over its
// per-shard clocks, i.e. when the slowest shard finished the work this
// stream charged (shards run on separate disks, concurrently).
func (s *Stream) SimNow() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max time.Duration
	for _, ck := range s.clocks {
		if n := ck.Now(); n > max {
			max = n
		}
	}
	return max
}

// StreamStats summarizes a merged stream's own I/O and fault activity,
// summed over its per-shard clocks.
type StreamStats struct {
	Counters iosim.Counters
	Faults   iosim.FaultCounters
	// Retries counts transient faults surfaced to the caller (and retried).
	Retries int64
	// DegradedLeaves / DegradedSections total the hard losses across
	// shards; DegradedShards lists the shards that lost at least one leaf.
	DegradedLeaves   int64
	DegradedSections int64
	DegradedShards   []int
	// SimTime is the slowest shard clock (SimNow).
	SimTime time.Duration
}

// Stats returns the stream's counters, summed across shards.
func (s *Stream) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st StreamStats
	for _, ck := range s.clocks {
		c := ck.Counters()
		st.Counters.RandomReads += c.RandomReads
		st.Counters.SequentialReads += c.SequentialReads
		st.Counters.RandomWrites += c.RandomWrites
		st.Counters.SequentialWrites += c.SequentialWrites
		f := ck.FaultCounters()
		st.Faults.Transient += f.Transient
		st.Faults.LatencySpikes += f.LatencySpikes
		st.Faults.Rereads += f.Rereads
		st.Faults.CorruptPages += f.CorruptPages
		st.Faults.DeadPages += f.DeadPages
		if n := ck.Now(); n > st.SimTime {
			st.SimTime = n
		}
	}
	st.Retries = s.retries
	st.DegradedLeaves = s.degLeaf
	st.DegradedSections = s.degSec
	for i := range s.degShard {
		st.DegradedShards = append(st.DegradedShards, i)
	}
	sort.Ints(st.DegradedShards)
	return st
}
