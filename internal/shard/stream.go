package shard

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
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

// SeededRand returns the source every random draw of a seeded stream derives
// from, on the sharded and the unsharded view alike: the stream digests pin
// its output.
func SeededRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed^0x51ee0c0de, seed*0x9e3779b97f4a7c15+1))
}

// sub is one partition's contribution to a stream: the partition's leaf
// stream and what the merger needs to weigh it.
type sub struct {
	leaf *lsm.Stream
	// est0 and queryLeaves size the Reduce applied when the shard loses a
	// leaf: one lost leaf forfeits roughly est0/queryLeaves matching records.
	est0        float64
	queryLeaves int
	done        bool
}

// Stream is an online random sample over disjoint partitions: the
// per-partition streams, interleaved by remaining matching count (the K-way
// hypergeometric merge), so every prefix is a uniform without-replacement
// sample of the full matching set. Over one partition — the unsharded view,
// or a sharded view with K = 1 — the merge is the identity: the stream is
// that partition's stream alone, with no merger, and returns its errors
// unwrapped, since there is no other shard to name.
//
// Safe for concurrent use: a private lock serializes draws, Close is
// idempotent and may race with Next, and each partition's I/O lands on a
// clock forked from that partition's own disk.
type Stream struct {
	mu     sync.Mutex
	merge  *interleave.Merger // guarded by mu; nil over one partition
	subs   []*sub             // guarded by mu (clocks retained after Close)
	clocks []*iosim.Clock
	closed bool // guarded by mu
	// lost is the fault accounting (Retries and the Degraded fields), kept
	// where the stream returns an error, so Stats stays valid after Close.
	lost Stats // guarded by mu
}

// OnePartition returns the stream over one partition's stream ls, whose
// I/O is charged to ck.
func OnePartition(ls *lsm.Stream, ck *iosim.Clock) *Stream {
	return &Stream{subs: []*sub{{leaf: ls}}, clocks: []*iosim.Clock{ck}}
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
	return v.queryLocked(q, SeededRand(seed))
}

// queryLocked opens the stream, drawing every rng seed from src in a fixed
// per-shard order: the shard's batch shuffle, then (only over a non-empty
// write path) its merge rng; the K-way interleave last, over more than one
// shard. Callers hold v.mu.
func (v *View) queryLocked(q record.Box, src *rand.Rand) (*Stream, error) {
	seeded := func() *rand.Rand { return rand.New(rand.NewPCG(src.Uint64(), src.Uint64())) }
	s := &Stream{subs: make([]*sub, len(v.shards)), clocks: make([]*iosim.Clock, len(v.shards))}
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
			s.subs = s.subs[:i]
			s.Close() // unpin the shards opened so far
			return nil, fmt.Errorf("shard: opening shard %d stream: %w", i, err)
		}
		s.subs[i] = &sub{leaf: ls, est0: est, queryLeaves: ls.QueryLeaves()}
		s.clocks[i], rem[i] = ck, est
	}
	if len(s.subs) > 1 {
		s.merge = interleave.New(seeded(), rem)
	}
	return s, nil
}

// AppendSample is the stream's batch draw: under one acquisition of the
// stream lock it appends the next n sample records to dst — a slice the
// caller owns; the stream keeps no reference to it — making per record
// exactly the decisions, in the same rng order, that n calls of Next would,
// and returns the extended slice. Fewer than n records with a nil error
// means the predicate is exhausted across all partitions; after Close the
// error is ErrStreamClosed.
//
// Storage faults surface per partition: a transient fault is retriable (no
// records are skipped), and a lost leaf or delta region surfaces once as a
// degraded error while the stream keeps drawing from what survived — under
// the merger with the shard's remaining weight shaved, so it cannot soak up
// draws it can no longer serve, and wrapped in a *ShardError naming the
// shard. The records drawn before an error are returned with it.
func (s *Stream) AppendSample(dst []record.Record, n int) ([]record.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return dst, ErrStreamClosed
	}
	var err error
	if s.merge == nil {
		dst, err = s.subs[0].leaf.AppendNext(dst, n)
	} else {
		dst, err = s.appendMergedLocked(dst, n)
	}
	if err != nil {
		s.count(err)
	}
	return dst, err
}

// count records an error the stream is returning to its caller: the one
// place faults are accounted, so Retries + DegradedLeaves + one per
// WritePathLostError is the number of errors the caller has seen. Callers
// hold mu.
func (s *Stream) count(err error) {
	shard := 0
	var se *ShardError
	if errors.As(err, &se) {
		shard = se.Shard
	}
	var de *core.DegradedError
	switch {
	case errors.As(err, &de):
		s.lost.DegradedLeaves++
		s.lost.DegradedSections += int64(len(de.Sections))
	case lsm.IsWritePathLost(err):
		// The partition's write path lost a delta region for good: it keeps
		// serving what survived (surfaced once per stream by the lsm layer).
	default:
		s.lost.Retries++
		return
	}
	if i, found := slices.BinarySearch(s.lost.DegradedShards, shard); !found {
		s.lost.DegradedShards = slices.Insert(s.lost.DegradedShards, i, shard)
	}
}

// appendMergedLocked appends up to n records of the K-way merge to dst.
// Callers hold mu.
func (s *Stream) appendMergedLocked(dst []record.Record, n int) ([]record.Record, error) {
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
// back unextended when the shard is exhausted. A lost leaf shaves the
// shard's merge weight before the error surfaces. Callers hold mu.
func (s *Stream) popLocked(dst []record.Record, i int) ([]record.Record, error) {
	u := s.subs[i]
	if u.done {
		return dst, nil
	}
	got, err := u.leaf.AppendNext(dst, 1)
	if err != nil {
		var de *core.DegradedError
		if errors.As(err, &de) && u.queryLeaves > 0 {
			s.merge.Reduce(i, u.est0/float64(u.queryLeaves))
		}
		return dst, &ShardError{Shard: i, Err: err}
	}
	u.done = len(got) == len(dst)
	return got, nil
}

// Next returns the next sample record, io.EOF when the predicate is
// exhausted across all partitions, or ErrStreamClosed after Close.
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

// Close releases the per-partition sampling state, handing each tree its
// stream's working memory back and unpinning the files the stream read.
// Idempotent and safe to call concurrently with draws: a draw racing Close
// either completes (a batch draw whole) or observes ErrStreamClosed, and
// nothing a draw returned is touched. Stats remains valid after Close.
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
// per-partition clocks, i.e. when the slowest shard finished the work this
// stream charged (shards run on separate disks, concurrently).
func (s *Stream) SimNow() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var now time.Duration
	for _, ck := range s.clocks {
		now = max(now, ck.Now())
	}
	return now
}

// Stats summarizes I/O, fault activity and simulated time: of a view's disks
// since open (View.Stats, of either view kind), or of one stream's own
// clocks (Stream.Stats) — the cost the stream would incur running alone —
// plus what the stream lost.
type Stats struct {
	Counters iosim.Counters
	// Faults counts storage-layer fault events: injected transient failures,
	// latency spikes, checksum rereads, corrupt pages and dead pages.
	Faults iosim.FaultCounters
	// Retries counts the transient errors a stream returned to its caller,
	// each one retriable where it struck. Zero for a view.
	Retries int64
	// DegradedLeaves and DegradedSections total the base leaves (and their
	// query-overlapping sections) a stream lost for good; DegradedShards
	// lists the partitions that lost a leaf or a delta region. Zero for a
	// view.
	DegradedLeaves   int64
	DegradedSections int64
	DegradedShards   []int
	// SimTime is the elapsed simulated time: the slowest partition clock of
	// a stream (SimNow), the busiest disk of a view.
	SimTime time.Duration
}

// Stats returns the stream's counters, summed across partitions.
func (s *Stream) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.lost
	st.DegradedShards = slices.Clone(st.DegradedShards)
	for _, ck := range s.clocks {
		st.Counters.Add(ck.Counters())
		st.Faults.Add(ck.FaultCounters())
		st.SimTime = max(st.SimTime, ck.Now())
	}
	return st
}
