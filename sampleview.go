package sampleview

import (
	"errors"
	"io"
	"math/rand/v2"
	"sync"
	"time"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/lsm"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/stats"
)

// ErrStreamClosed is returned by Next (and everything built on it) of a
// Stream or ShardedStream after its Close has been called.
var ErrStreamClosed = lsm.ErrStreamClosed

// Re-exported data types. Record is the fixed 100-byte tuple the view
// stores; Key is the primary indexed attribute and Amount the secondary
// one used by two-dimensional views.
type (
	// Record is one tuple of the view.
	Record = record.Record
	// Range is a closed interval over one key dimension.
	Range = record.Range
	// Box is a (1- or 2-dimensional) range predicate.
	Box = record.Box
	// Estimator consumes an online sample and maintains running aggregate
	// estimates with confidence intervals.
	Estimator = stats.Estimator
	// WriteStats is a snapshot of a view's write-path gauges and counters:
	// memview contents, delta-ladder shape, tombstones pending and
	// maintenance rounds run.
	WriteStats = lsm.WriteStats
)

// Fault-model types, re-exported so callers can configure fault injection
// and type-switch on storage failures without importing internal packages.
type (
	// FaultPlan is a deterministic, seeded schedule of injected storage
	// faults (see Options.Faults and View.InjectFaults).
	FaultPlan = iosim.FaultPlan
	// FaultCounters aggregates observed fault activity.
	FaultCounters = iosim.FaultCounters
	// CorruptPageError reports a page whose checksum verification failed:
	// detected bit rot, never silently wrong records.
	CorruptPageError = pagefile.CorruptPageError
	// DeadPageError reports a page unreadable after the full retry budget.
	DeadPageError = pagefile.DeadPageError
	// TransientIOError reports a read failure that a later retry may clear.
	TransientIOError = pagefile.TransientError
	// DegradedError reports a stream that permanently lost a leaf: the
	// running sample no longer covers the named sections.
	DegradedError = core.DegradedError
	// PageFault locates one corrupt page found by View.Fsck.
	PageFault = core.PageFault
	// BackendKind selects the raw-I/O backend of an OS-backed view file
	// (see Options.Backend).
	BackendKind = pagefile.BackendKind
	// ItemRangeError reports an item region that does not fit its file.
	ItemRangeError = pagefile.ItemRangeError
	// FormatError reports a view file whose tree was written under a format
	// version this build does not read; the view must be rebuilt.
	FormatError = core.FormatError
)

// Raw-I/O backends for Options.Backend.
const (
	// BackendPread serves pages with positional reads: the portable default.
	BackendPread = pagefile.BackendPread
	// BackendMmap maps the view file read-only and serves pages zero-copy.
	BackendMmap = pagefile.BackendMmap
)

// ParseBackendKind maps a flag spelling ("pread", "mmap", "default") to a
// BackendKind for Options.Backend.
func ParseBackendKind(s string) (BackendKind, error) { return pagefile.ParseBackendKind(s) }

// FaultProfile returns the named fault profile ("none", "flaky-disk",
// "slow-disk", "flaky-deep", "bitrot", "bad-sector", "hell") with the given
// seed.
func FaultProfile(name string, seed uint64) (FaultPlan, error) {
	return iosim.ProfilePlan(name, seed)
}

// FaultProfiles lists the named fault profiles, mildest first.
func FaultProfiles() []string { return iosim.Profiles() }

// Crash-injection types, re-exported for the crash-drill harness: a
// CrashPlan schedules one deterministic simulated power cut at a named
// write-path crash point (see Options.Crash and View.InjectCrash).
type (
	// CrashPlan schedules one deterministic power cut.
	CrashPlan = iosim.CrashPlan
	// CrashPoint names an instrumented write-path site.
	CrashPoint = iosim.CrashPoint
)

// The named crash points, in write-path order.
const (
	CrashPostWALAppend     = iosim.CrashPostWALAppend
	CrashMidPageWrite      = iosim.CrashMidPageWrite
	CrashPreManifestRename = iosim.CrashPreManifestRename
	CrashMidCompaction     = iosim.CrashMidCompaction
)

// CrashPoints returns every crash point, in write-path order.
func CrashPoints() []CrashPoint { return iosim.CrashPoints() }

// ParseCrashPoint resolves a crash-point name from a flag.
func ParseCrashPoint(s string) (CrashPoint, error) { return iosim.ParseCrashPoint(s) }

// IsCrash reports whether err is (or wraps) a simulated power cut. After a
// cut, every write-path operation on the view fails with the same error;
// reopening the view runs recovery over whatever reached the disk.
func IsCrash(err error) bool { return iosim.IsCrash(err) }

// IsTransient reports whether err is (or wraps) a transient storage
// failure: retrying the operation that returned it may succeed, and for
// streams the retry continues exactly where the fault struck (no records
// are skipped or repeated).
func IsTransient(err error) bool { return pagefile.IsTransient(err) }

// IsDegraded reports whether err is (or wraps) a permanent-but-survivable
// storage loss: a DegradedError (a base leaf lost to a dead or corrupt
// page) or an lsm.WritePathLostError (a delta region lost the same way).
// Either way the stream that returned it keeps serving what survived.
func IsDegraded(err error) bool {
	var de *DegradedError
	return errors.As(err, &de) || lsm.IsWritePathLost(err)
}

// Box1D returns a one-dimensional predicate over [lo, hi] on Key.
func Box1D(lo, hi int64) Box { return record.Box1D(lo, hi) }

// Box2D returns a two-dimensional predicate over Key and Amount.
func Box2D(keyLo, keyHi, amtLo, amtHi int64) Box {
	return record.Box2D(keyLo, keyHi, amtLo, amtHi)
}

// FullBox returns the predicate matching everything in ndims dimensions.
func FullBox(ndims int) Box { return record.FullBox(ndims) }

// Options configures view creation.
type Options struct {
	// Dims is the number of indexed dimensions, 1 (Key only, the default)
	// or 2 (Key and Amount).
	Dims int
	// Height overrides the ACE Tree height; 0 sizes leaves to one disk
	// page, the paper's rule.
	Height int
	// MemPages is the construction sort's page budget (default 64).
	MemPages int
	// Seed drives the randomized construction. Views built with different
	// seeds over the same data give independent samples.
	Seed uint64
	// BuildParallelism is the number of worker goroutines the bulk
	// construction pipeline may use for run formation, tagging and leaf
	// writing (0 or 1 = sequential). The stored view is byte-identical at
	// every setting for a given seed.
	BuildParallelism int
	// DiskModel overrides the simulated disk cost model used for I/O
	// accounting. Zero value selects iosim.DefaultModel.
	DiskModel iosim.Model
	// Faults installs a deterministic storage-fault schedule on the view's
	// simulated disk. Construction and metadata loading always run
	// fault-free; the plan governs the query and append I/O that follows.
	// The zero value injects nothing; View.InjectFaults replaces the plan at
	// runtime.
	Faults FaultPlan
	// Backend selects the raw-I/O backend for OS-backed view files opened
	// with Open: BackendPread (the portable default) or BackendMmap (the
	// zero-copy fast path). It changes only wall-clock speed — the simulated
	// accounting and every sampled byte are identical across backends.
	// Ignored by Create and by in-memory views.
	Backend BackendKind
	// WAL enables the crash-consistent write path for OS-backed views:
	// every Insert/Delete is appended to a checksummed write-ahead log
	// beside the view file before it reaches the memview, View.Commit
	// group-commits the log (the ack barrier), Open replays it, and Flush
	// truncates the segments a durable level-0 write made redundant.
	// Ignored for in-memory views.
	WAL bool
	// WALSyncEvery caps how many logged operations one group-commit cohort
	// may cover; 1 syncs every write (the durability baseline), 0 leaves
	// the cohort unbounded. Only meaningful with WAL.
	WALSyncEvery int
	// WALGroupWindow is how long a commit leader waits (wall-clock) for
	// more writers to join its cohort before issuing the one fsync that
	// acks the batch. 0 syncs immediately. Only meaningful with WAL.
	WALGroupWindow time.Duration
	// Crash installs a deterministic simulated power-cut schedule on the
	// view's disk (see CrashPlan). The zero value injects nothing;
	// View.InjectCrash replaces the schedule at runtime.
	Crash CrashPlan
}

func (o Options) model() iosim.Model {
	if o.DiskModel.PageSize == 0 {
		return iosim.DefaultModel()
	}
	return o.DiskModel
}

func (o Options) params() core.Params {
	return core.Params{
		Dims:        o.Dims,
		Height:      o.Height,
		MemPages:    o.MemPages,
		Seed:        o.Seed,
		Parallelism: o.BuildParallelism,
	}
}

func (o Options) part() lsm.PartOptions {
	return lsm.PartOptions{
		Backend:        o.Backend,
		WAL:            o.WAL,
		WALSyncEvery:   o.WALSyncEvery,
		WALGroupWindow: o.WALGroupWindow,
	}
}

// Source supplies records to Create one at a time; it returns false when
// exhausted.
type Source func() (Record, bool)

// SliceSource adapts a slice to a Source.
func SliceSource(recs []Record) Source { return lsm.SliceSource(recs) }

// View is an open materialized sample view. A View and every Stream
// created from it may be used from multiple goroutines. Streams do not
// contend on a view-level lock: each one carries its own mutex and
// charges its page reads to a private clock forked from the view's
// simulated disk (iosim.Sim.Fork), so concurrent streams proceed
// independently while the view's aggregate Stats stay complete. Only the
// draw rng and Compact-versus-Close serialize on the view mutex; the write
// path has its own locking.
type View struct {
	sim *iosim.Sim
	// part owns the view's storage: page file, base tree, write path (memview
	// plus delta levels beside the file) and write-ahead log.
	part *lsm.Part
	mu   sync.Mutex
	rng  *rand.Rand // guarded by mu
}

// Create builds a sample view over the records produced by src and stores
// it in a file at path. An empty path keeps the view in memory.
func Create(path string, src Source, opts Options) (*View, error) {
	sim := iosim.New(opts.model())
	part, err := lsm.BuildPart(sim, path, src, opts.params(), opts.part())
	return newView(sim, part, err, opts)
}

// CreateFromSlice builds a sample view over the given records.
func CreateFromSlice(path string, recs []Record, opts Options) (*View, error) {
	return Create(path, SliceSource(recs), opts)
}

// Open opens a view previously stored by Create: the view file, the delta
// ladder persisted beside it (so ingest flushed by a previous process stays
// visible) and, with Options.WAL, the write-ahead log — replayed into the
// memview, skipping operations already folded into durable levels, before
// any fault or crash schedule arms.
func Open(path string, opts Options) (*View, error) {
	sim := iosim.New(opts.model())
	part, err := lsm.OpenPart(sim, path, opts.part())
	return newView(sim, part, err, opts)
}

// newView wraps a freshly built, opened or folded partition (or passes its
// error through) and only then arms the fault and crash schedules:
// construction, metadata loading and recovery always run fault-free.
func newView(sim *iosim.Sim, part *lsm.Part, err error, opts Options) (*View, error) {
	if err != nil {
		return nil, err
	}
	sim.SetFaultPlan(opts.Faults)
	sim.SetCrashPlan(opts.Crash)
	return &View{
		sim:  sim,
		part: part,
		rng:  rand.New(rand.NewPCG(opts.Seed^0x5eedf00d, opts.Seed+1)),
	}, nil
}

// Commit blocks until every write accepted so far is durable in the
// write-ahead log, joining the in-progress group-commit cohort when one
// exists (one fsync acks every writer parked on it). Callers that ack
// writes to others — the serving layer — call this before acking. Without a
// WAL it returns immediately: durability is then only flush-deep.
func (v *View) Commit() error { return v.part.Commit() }

// Close releases the view's delta-level files, its write-ahead log
// (flushing any buffered log frames first, unless a simulated power cut
// already struck) and its backing file, after any Compact in flight.
func (v *View) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.part.Close()
}

// Count returns the number of records in the view, including ingested ones
// not yet folded into the tree.
func (v *View) Count() int64 { return v.part.Count() }

// Dims returns the number of indexed dimensions.
func (v *View) Dims() int { return v.part.Main().Dims() }

// Height returns the ACE Tree height (sections per leaf).
func (v *View) Height() int { return v.part.Main().Height() }

// PendingAppends returns how many ingested records await a fold into the
// tree: the in-memory buffer plus every delta level.
func (v *View) PendingAppends() int { return v.part.DeltaSize() }

// Append adds a record to the view's ingest buffer. The record
// participates in all subsequent queries; call Compact periodically to
// fold the write path into the tree. It is Insert without the error (an
// insert can only fail on a sealed buffer, which Insert retries past).
func (v *View) Append(rec Record) { v.part.Insert(rec) }

// Insert adds a record to the view through the in-memory ingest buffer.
// Seqs must be unique over the view's lifetime, and a deleted Seq must
// never be reinserted.
func (v *View) Insert(rec Record) error { return v.part.Insert(rec) }

// Delete removes the record with rec's Seq from the view. A record still
// in the ingest buffer annihilates immediately; anything older becomes a
// tombstone that queries honor at once and maintenance folds away.
func (v *View) Delete(rec Record) error { return v.part.Delete(rec) }

// Flush seals the ingest buffer and writes it out as a new level-0 delta
// file beside the view file (in memory for in-memory views). Ingest is
// blocked only for the buffer swap; queries see every record throughout.
func (v *View) Flush() error { return v.part.Flush() }

// CompactDeltas runs one round of size-tiered delta compaction, merging an
// adjacent level pair when one is due (always, with force, while two
// levels exist). Open streams are not blocked: they keep reading the
// superseded files. It reports whether a merge ran.
func (v *View) CompactDeltas(force bool) (bool, error) { return v.part.CompactOnce(force) }

// DeltaLevels returns the current depth of the on-disk delta ladder.
func (v *View) DeltaLevels() int { return v.part.Store().Levels() }

// WriteStats returns the view's write-path gauges and counters.
func (v *View) WriteStats() WriteStats { return v.part.WriteStats() }

// Compact rebuilds the view over everything it holds — tree records minus
// tombstoned ones, plus every delta level and the ingest buffer — writing
// the result to path (empty = in memory), and returns the new view. The
// receiver remains open and readable; the fold works from a snapshot, so
// records ingested while it runs stay in the receiver only. The fold is
// fully contained in the new base tree, so the compacted view starts from
// an empty log (stale segments at path are cleared).
func (v *View) Compact(path string, opts Options) (*View, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	sim := iosim.New(opts.model())
	part, err := v.part.Fold(sim, path, opts.params(), opts.part())
	return newView(sim, part, err, opts)
}

// InjectFaults installs (or, with a zero plan, clears) a deterministic
// storage-fault schedule on the view's simulated disk. It takes effect for
// subsequent page reads, including those of streams already open; the
// chaos harness uses it to escalate profiles against a live view.
func (v *View) InjectFaults(p FaultPlan) { v.sim.SetFaultPlan(p) }

// FaultPlan returns the active fault schedule (zero if none).
func (v *View) FaultPlan() FaultPlan { return v.sim.FaultPlan() }

// InjectCrash installs (or, with a zero plan, clears) a deterministic
// simulated power-cut schedule on the view's disk. Once the scheduled
// crash point fires, every write-path operation fails with the crash error
// until the view is reopened; the crash drill harness uses it to kill the
// write path at every instrumented site.
func (v *View) InjectCrash(p CrashPlan) { v.sim.SetCrashPlan(p) }

// Crashed reports whether the simulated power cut has fired.
func (v *View) Crashed() bool { return v.sim.Crashed() }

// Fsck verifies the stored checksum of every page of the view file and
// reports each corrupt page with the tree region — and for leaf pages, the
// leaf and sections — it damages. The scan costs one sequential pass of
// simulated I/O.
func (v *View) Fsck() ([]PageFault, error) { return v.part.Main().FsckPages() }

// EstimateCount estimates the number of records matching q from the
// view's internal counts (exact for boundary-aligned predicates).
func (v *View) EstimateCount(q Box) (float64, error) {
	return v.part.EstimateCount(q)
}

// NewEstimator returns an online-aggregation estimator whose population
// size is preset from EstimateCount(q), so Sum and Count estimates work
// out of the box.
func (v *View) NewEstimator(q Box) (*Estimator, error) {
	pop, err := v.EstimateCount(q)
	if err != nil {
		return nil, err
	}
	e := stats.NewEstimator()
	e.SetPopulation(int64(pop + 0.5))
	return e, nil
}

// Stream is an online random sample: every prefix of the records it has
// returned is a uniform random sample, without replacement, of all records
// matching the predicate. It ends with io.EOF once the full matching set
// has been returned.
//
// Each Stream owns its state: a private lock serializing its draws and a
// private clock accounting its I/O, so any number of streams over one
// view can be driven concurrently, each observing the cost it would incur
// running alone on the view's disk.
type Stream struct {
	mu    sync.Mutex   // serializes draws on this stream
	clock *iosim.Clock // the stream's private I/O clock
	// leaf is the partition's stream: the base tree alone over an empty write
	// path, merged with the memview and delta levels otherwise. Once closed it
	// draws nothing more, but its fault counters stay readable.
	leaf   *lsm.Stream // guarded by mu
	closed bool        // guarded by mu
	// write snapshots the view's write-path stats at open, so Stats can
	// report the delta depth this stream reads through.
	write WriteStats
}

// Query starts an online sample stream for predicate q. Records ingested
// after the stream was created do not join it; start a new stream to see
// them.
func (v *View) Query(q Box) (*Stream, error) {
	return v.open(q, func() *rand.Rand {
		v.mu.Lock()
		defer v.mu.Unlock()
		return rand.New(rand.NewPCG(v.rng.Uint64(), v.rng.Uint64()))
	})
}

// QuerySeeded is Query with an explicit stream seed: the randomness that
// merges the write path into the stream (batch shuffles, hypergeometric
// interleave draws) is derived from seed alone instead of the view's shared
// rng. Two views holding byte-identical storage state produce byte-identical
// record sequences from QuerySeeded with the same seed and query — the
// property the fleet tier's replica migration relies on: a stream is fully
// described by (view, query, seed, position), so it can resume on another
// replica with no visible gap. Views with an empty write path are already
// deterministic (the shuttle draws nothing at query time); the seed is
// simply recorded by convention.
func (v *View) QuerySeeded(q Box, seed uint64) (*Stream, error) {
	return v.open(q, func() *rand.Rand {
		return rand.New(rand.NewPCG(seed^0x51ee0c0de, seed*0x9e3779b97f4a7c15+1))
	})
}

// open starts a stream on a private clock; merge supplies the rng that
// drives the write-path merge and is called only if there is one.
func (v *View) open(q Box, merge func() *rand.Rand) (*Stream, error) {
	ck := v.sim.Fork()
	ls, err := v.part.OpenStream(ck, q, nil, merge)
	if err != nil {
		return nil, err
	}
	return &Stream{clock: ck, leaf: ls, write: v.part.WriteStats()}, nil
}

// AppendSample is the stream's batch draw: under one acquisition of the
// stream lock it appends the next n sample records to dst — a slice the
// caller owns; the stream keeps no reference to it — and returns the
// extended slice, having made exactly the draws n calls of Next would.
// Fewer than n records with a nil error means the predicate is exhausted;
// after Close the error is ErrStreamClosed. Records drawn before a storage
// error are returned with it, and a retried call continues where the fault
// struck.
func (s *Stream) AppendSample(dst []Record, n int) ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return dst, ErrStreamClosed
	}
	return s.leaf.AppendNext(dst, n)
}

// Next returns the next sample record, io.EOF when the predicate is
// exhausted, or ErrStreamClosed after Close.
func (s *Stream) Next() (Record, error) {
	var one [1]Record
	out, err := s.AppendSample(one[:0], 1)
	if len(out) == 0 && err == nil {
		err = io.EOF
	}
	return one[0], err
}

// Close releases the stream's buffered state, handing its working memory
// back to the view for the next stream. It is idempotent and safe to call
// concurrently with Next, Sample, Buffered and Stats from other goroutines:
// a draw racing with Close either completes normally (a batch draw whole) or
// observes ErrStreamClosed, never a torn state, and nothing a draw returned
// is touched by Close or by any later stream. Stats remains valid after
// Close (the stream's clock is retained; only the sampling state is
// dropped).
func (s *Stream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.leaf.Close()
	}
	return nil
}

// Sample collects up to n records from the stream (fewer if the predicate
// exhausts first) into a slice of its own.
func (s *Stream) Sample(n int) ([]Record, error) {
	// The predicate may exhaust long before a large n.
	return s.AppendSample(make([]Record, 0, min(n, 4096)), n)
}

// Buffered returns the number of records parked in the base stream's
// combine buckets.
func (s *Stream) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaf.Buffered()
}

// IOStats summarizes the I/O activity, fault activity and simulated time of
// the view's disk (for View.Stats) or of one stream (for Stream.Stats).
type IOStats struct {
	Counters iosim.Counters
	// Faults counts storage-layer fault events: injected transient
	// failures, latency spikes, checksum rereads, corrupt pages and dead
	// pages observed by this disk or stream clock.
	Faults FaultCounters
	// Retries counts sampler-level retries: stabs that surfaced a transient
	// error to the caller and were re-driven over the same leaf. Zero in
	// View.Stats (it is a per-stream quantity).
	Retries int64
	// DegradedLeaves and DegradedSections count the leaves (and their
	// query-overlapping sections) this stream permanently lost to hard
	// storage failures. Zero in View.Stats.
	DegradedLeaves   int64
	DegradedSections int64
	// Write holds the write-path gauges and counters: the view's current
	// state in View.Stats, the state at stream open in Stream.Stats.
	Write   WriteStats
	SimTime string
}

// Stats returns a snapshot of the view's simulated I/O counters,
// aggregated over every stream (counters are atomic; no lock is taken).
func (v *View) Stats() IOStats {
	return IOStats{
		Counters: v.sim.Counters(),
		Faults:   v.sim.FaultCounters(),
		Write:    v.part.WriteStats(),
		SimTime:  v.sim.Now().String(),
	}
}

// SimNow returns the view's current simulated disk time: the total disk-busy
// time of every access charged so far, directly or through any stream. It
// advances only when I/O is simulated, never with the wall clock, which
// makes it a deterministic basis for idle accounting (the serving layer's
// reaper keys off it).
func (v *View) SimNow() time.Duration { return v.sim.Now() }

// SimNow returns the stream's elapsed simulated I/O time as a duration (the
// same quantity Stats reports as a string).
func (s *Stream) SimNow() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock.Now()
}

// Stats returns the stream's own I/O and fault counters and elapsed
// simulated time: the cost this stream would incur running alone on the
// view's disk, plus how many faults it absorbed and what it lost.
func (s *Stream) Stats() IOStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return IOStats{
		Counters:         s.clock.Counters(),
		Faults:           s.clock.FaultCounters(),
		Retries:          s.leaf.TransientRetries(),
		DegradedLeaves:   s.leaf.DegradedLeaves(),
		DegradedSections: s.leaf.DegradedSections(),
		Write:            s.write,
		SimTime:          s.clock.Now().String(),
	}
}
