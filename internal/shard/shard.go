// Package shard implements partitioned sample views: one logical view
// whose base relation is split across K simulated disks (an iosim.Farm),
// each partition carrying its own ACE tree and differential buffer. A
// query opens one online sample stream per shard and merges them into a
// single stream with the K-way hypergeometric draw of internal/interleave,
// so every prefix of the merged stream is a uniform without-replacement
// sample of the full matching set — the paper's Combinability property
// (Sec. IV) applied across partitions rather than across regions, and the
// K-way generalization of the Sec. IX differential-file merge.
//
// Partitioning is by hash (seeded, on the immutable Seq attribute; the
// default) or by equal-width key ranges. Either way partitions are
// disjoint and exhaustive, which is all the merge needs. Shards build in
// parallel (Options.Parallelism bounds total build workers) and fail
// independently: a dead shard degrades the merged stream via the existing
// DegradedError machinery while surviving shards keep serving.
package shard

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/lsm"
	"sampleview/internal/pagefile"
	"sampleview/internal/par"
	"sampleview/internal/record"
	"sampleview/internal/splitmix"
)

// Partition selects how records map to shards.
type Partition int

const (
	// HashBySeq routes each record by a seeded hash of its immutable Seq
	// attribute: uniform shard sizes for any key distribution.
	HashBySeq Partition = iota
	// RangeByKey routes by equal-width slabs of the Key domain observed at
	// build time; appends outside the observed bounds clamp to the edge
	// shards. Range partitioning gives key-locality per shard (useful for
	// shard-pruning experiments) at the cost of skew under non-uniform keys.
	RangeByKey
)

// String returns the manifest encoding of the partition scheme.
func (p Partition) String() string {
	if p == RangeByKey {
		return "range"
	}
	return "hash"
}

// ParsePartition parses the manifest encoding of a partition scheme.
func ParsePartition(s string) (Partition, error) {
	switch s {
	case "hash":
		return HashBySeq, nil
	case "range":
		return RangeByKey, nil
	}
	return 0, fmt.Errorf("shard: unknown partition scheme %q", s)
}

// Options configures a sharded view.
type Options struct {
	// K is the number of shards (and simulated disks). 0 means 1.
	K int
	// Partition selects the record-to-shard mapping.
	Partition Partition
	// Dims, Height, MemPages and Seed play the same roles as in the
	// unsharded view options; Seed also drives partition hashing and the
	// merged streams' draws.
	Dims, Height, MemPages int
	Seed                   uint64
	// Parallelism bounds the worker goroutines used across the whole
	// build: shards build concurrently and each shard's internal pipeline
	// runs on one worker; the stored bytes are identical at every setting.
	Parallelism int
	// Model overrides the per-disk cost model (zero = iosim.DefaultModel).
	Model iosim.Model
	// Faults installs a fault schedule on every disk after the build (each
	// disk gets an independently mixed seed; see iosim.Farm.SetFaultPlan).
	Faults iosim.FaultPlan
	// Backend selects the raw-I/O backend used when stored shard files are
	// opened (pread by default, mmap for the zero-copy fast path); it
	// changes wall-clock speed only, never the simulated accounting.
	Backend pagefile.BackendKind
	// WAL attaches a write-ahead log to every stored shard: inserts and
	// deletes are logged before they are applied, Commit makes them durable,
	// and Open replays whatever a crash left unflushed. Ignored for
	// in-memory views (nothing survives anyway).
	WAL bool
	// WALGroupWindow is how long a group-commit leader waits for followers
	// to pile on before syncing. Passed through to wal.Options.GroupWindow.
	WALGroupWindow time.Duration
}

func (o Options) k() int {
	if o.K <= 0 {
		return 1
	}
	return o.K
}

func (o Options) model() iosim.Model {
	if o.Model.PageSize == 0 {
		return iosim.DefaultModel()
	}
	return o.Model
}

func (o Options) params(shard int) core.Params {
	return core.Params{
		Dims:     o.Dims,
		Height:   o.Height,
		MemPages: o.MemPages,
		// Per-shard seeds differ so shard trees are independently
		// randomized; mixing keeps them deterministic in (Seed, shard).
		Seed: splitmix.Mix(o.Seed ^ (uint64(shard) + 1)),
	}
}

func (o Options) part() lsm.PartOptions {
	return lsm.PartOptions{
		Backend:        o.Backend,
		WAL:            o.WAL,
		WALGroupWindow: o.WALGroupWindow,
	}
}

// ManifestName is the metadata file a stored sharded view keeps in its
// directory.
const ManifestName = "shard.json"

// manifest is the persisted form of a sharded view's layout.
type manifest struct {
	K         int     `json:"k"`
	Partition string  `json:"partition"`
	Bounds    []int64 `json:"bounds,omitempty"` // K+1 key boundaries for range mode
	Dims      int     `json:"dims"`
	Height    int     `json:"height"`
	Seed      uint64  `json:"seed"`
}

// ShardFile returns the file name of shard i within a view directory.
func ShardFile(i int) string { return fmt.Sprintf("shard-%04d.sv", i) }

// View is an open sharded sample view: K partitions, the farm of disks
// they live on, and the router that maps records to them. Safe for
// concurrent use: the farm and shard slice are immutable after open; the
// draw rng and in-place rebuilds serialize on the view mutex, and streams
// charge private clocks forked from their shard's disk.
type View struct {
	opts   Options
	farm   *iosim.Farm
	dir    string  // "" = in-memory
	bounds []int64 // range mode: K+1 key boundaries; nil for hash mode

	// shards is immutable after Create/Open publish the view; each part
	// owns its shard's file, write path and log.
	shards []*lsm.Part

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu
}

// newView returns a view shell over k disks, its shards still to be filled.
func newView(dir string, opts Options, k int, bounds []int64) *View {
	return &View{
		opts:   opts,
		farm:   iosim.NewFarm(opts.model(), k),
		dir:    dir,
		bounds: bounds,
		shards: make([]*lsm.Part, k),
		rng:    rand.New(rand.NewPCG(opts.Seed^0x5aa3d01f, opts.Seed+1)),
	}
}

// route returns the shard index owning rec.
func (v *View) route(rec *record.Record) int {
	k := len(v.shards)
	if k == 1 {
		return 0
	}
	if v.bounds == nil {
		return int(splitmix.Mix(v.opts.Seed^rec.Seq) % uint64(k))
	}
	// Range mode: binary search the K+1 boundaries; clamp to edge shards.
	if rec.Key < v.bounds[0] {
		return 0
	}
	lo, hi := 0, k-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if rec.Key >= v.bounds[mid] {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Route returns the shard index that owns rec under the view's
// partitioning: the shard a query stream draws it from. (Partitioning
// state is immutable after open, so Route takes no lock.)
func (v *View) Route(rec record.Record) int { return v.route(&rec) }

// rangeBounds computes K+1 equal-width key boundaries covering the records.
func rangeBounds(recs []record.Record, k int) []int64 {
	minK, maxK := int64(0), int64(0)
	for i := range recs {
		if i == 0 || recs[i].Key < minK {
			minK = recs[i].Key
		}
		if i == 0 || recs[i].Key > maxK {
			maxK = recs[i].Key
		}
	}
	bounds := make([]int64, k+1)
	span := maxK - minK + 1
	for i := 0; i <= k; i++ {
		bounds[i] = minK + int64(float64(span)*float64(i)/float64(k))
	}
	bounds[k] = maxK + 1
	return bounds
}

// Create builds a sharded view over recs. dir is the directory receiving
// the K shard files and the manifest; an empty dir keeps everything in
// memory. Shards build concurrently (Options.Parallelism workers); the
// stored bytes are identical at every parallelism setting.
func Create(dir string, recs []record.Record, opts Options) (*View, error) {
	k := opts.k()
	if dir != "" {
		if err := pagefile.MkdirAll(dir); err != nil {
			return nil, fmt.Errorf("shard: creating view directory: %w", err)
		}
	}
	var bounds []int64
	if opts.Partition == RangeByKey {
		bounds = rangeBounds(recs, k)
	}
	v := newView(dir, opts, k, bounds)
	parts := make([][]record.Record, k)
	for i := range recs {
		s := v.route(&recs[i])
		parts[s] = append(parts[s], recs[i])
	}
	err := par.ForEach(k, opts.Parallelism, func(i int) (err error) {
		v.shards[i], err = lsm.BuildPart(v.farm.Disk(i), v.shardPath(i), lsm.SliceSource(parts[i]), opts.params(i), opts.part())
		if err != nil {
			return fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		return nil
	})
	if err == nil && dir != "" {
		err = v.writeManifest()
	}
	if err != nil {
		v.Close()
		return nil, err
	}
	v.farm.SetFaultPlan(opts.Faults)
	return v, nil
}

func (v *View) shardPath(i int) string {
	if v.dir == "" {
		return ""
	}
	return filepath.Join(v.dir, ShardFile(i))
}

func (v *View) writeManifest() error {
	m := manifest{
		K:         len(v.shards),
		Partition: v.opts.Partition.String(),
		Bounds:    v.bounds,
		Dims:      v.opts.Dims,
		Height:    v.opts.Height,
		Seed:      v.opts.Seed,
	}
	if err := pagefile.SaveJSON(filepath.Join(v.dir, ManifestName), m, nil); err != nil {
		return fmt.Errorf("shard: writing manifest: %w", err)
	}
	return nil
}

func readManifest(dir string) (*manifest, error) {
	var m manifest
	if err := pagefile.LoadJSON(filepath.Join(dir, ManifestName), &m); err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	if m.K <= 0 {
		return nil, fmt.Errorf("shard: manifest %s: invalid shard count %d", filepath.Join(dir, ManifestName), m.K)
	}
	return &m, nil
}

// Open opens a sharded view previously stored by Create. Options that
// shape the stored bytes (K, partition, dims, height, seed) come from the
// manifest; opts supplies the runtime knobs (model, faults, parallelism).
func Open(dir string, opts Options) (*View, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	part, err := ParsePartition(m.Partition)
	if err != nil {
		return nil, err
	}
	opts.K = m.K
	opts.Partition = part
	opts.Dims = m.Dims
	opts.Height = m.Height
	opts.Seed = m.Seed
	v := newView(dir, opts, m.K, m.Bounds)
	for i := range v.shards {
		if v.shards[i], err = lsm.OpenPart(v.farm.Disk(i), v.shardPath(i), opts.part()); err != nil {
			v.Close()
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
	}
	v.farm.SetFaultPlan(opts.Faults)
	return v, nil
}

// Close releases every open shard's delta store, write-ahead log and
// backing file, returning the first error. (Shards a failed Create or Open
// never reached are skipped.)
func (v *View) Close() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	var first error
	for i, sp := range v.shards {
		if sp == nil {
			continue
		}
		if err := sp.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard: closing shard %d: %w", i, err)
		}
	}
	return first
}

// K returns the number of shards.
func (v *View) K() int { return len(v.shards) }

// Partitioning returns the record-to-shard mapping in use.
func (v *View) Partitioning() Partition { return v.opts.Partition }

// Dims returns the number of indexed dimensions.
func (v *View) Dims() int { return v.shards[0].Main().Dims() }

// Height returns the shard trees' height (they share the sizing rule but
// may differ when Height is auto-sized over skewed partitions; this
// reports shard 0's).
func (v *View) Height() int { return v.shards[0].Main().Height() }

// Farm returns the bank of simulated disks backing the view.
func (v *View) Farm() *iosim.Farm { return v.farm }

// Count returns the total number of records across all shards, including
// appended ones.
func (v *View) Count() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var n int64
	for _, sp := range v.shards {
		n += sp.Count()
	}
	return n
}

// ShardCounts returns the per-shard record counts (appends included).
func (v *View) ShardCounts() []int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]int64, len(v.shards))
	for i, sp := range v.shards {
		out[i] = sp.Count()
	}
	return out
}

// EstimateCount estimates the number of records matching q by summing the
// per-shard estimates (exact parts stay exact; partitions are disjoint).
func (v *View) EstimateCount(q record.Box) (float64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var total float64
	for i, sp := range v.shards {
		est, err := sp.EstimateCount(q)
		if err != nil {
			return 0, fmt.Errorf("shard: estimating on shard %d: %w", i, err)
		}
		total += est
	}
	return total, nil
}

// Append routes a record to its owning shard's ingest buffer. It
// participates in all subsequent queries; Flush and Compact move it down
// the write path. Append is Insert without the error (an insert can only
// fail on a sealed buffer, which the lsm view retries past).
func (v *View) Append(rec record.Record) {
	v.shards[v.route(&rec)].Insert(rec)
}

// Insert routes a record to its owning shard's ingest buffer. Seqs must be
// unique over the view's lifetime, and a deleted Seq never reinserted.
func (v *View) Insert(rec record.Record) error {
	return v.shards[v.route(&rec)].Insert(rec)
}

// Delete routes a delete to the shard owning rec: an in-buffer target
// annihilates immediately, anything older becomes a tombstone honored by
// queries at once. Routing is on the full record (hash mode routes by Seq,
// range mode by Key), so deletes land on the shard the insert did.
func (v *View) Delete(rec record.Record) error {
	return v.shards[v.route(&rec)].Delete(rec)
}

// Commit blocks until every write accepted so far is durable in each
// shard's write-ahead log (shards with no log, or in-memory shards, are
// covered trivially). The serving layer calls it before acking a write
// batch; one group commit per shard covers every writer parked on that
// shard's cohort.
func (v *View) Commit() error {
	for i, sp := range v.shards {
		if err := sp.Commit(); err != nil {
			return fmt.Errorf("shard: committing shard %d wal: %w", i, err)
		}
	}
	return nil
}

// Flush seals each shard's ingest buffer into a level-0 delta file beside
// its shard file, skipping empty buffers, and returns the first error.
func (v *View) Flush() error {
	for i, sp := range v.shards {
		if err := sp.Flush(); err != nil {
			return fmt.Errorf("shard: flushing shard %d: %w", i, err)
		}
	}
	return nil
}

// CompactDeltas runs one size-tiered compaction round on every shard's
// delta ladder, reporting how many shards merged a level pair.
func (v *View) CompactDeltas(force bool) (int, error) {
	merged := 0
	for i, sp := range v.shards {
		ran, err := sp.CompactOnce(force)
		if err != nil {
			return merged, fmt.Errorf("shard: compacting shard %d deltas: %w", i, err)
		}
		if ran {
			merged++
		}
	}
	return merged, nil
}

// DeltaLevels returns the deepest delta ladder across shards.
func (v *View) DeltaLevels() int {
	max := 0
	for _, sp := range v.shards {
		if n := sp.Store().Levels(); n > max {
			max = n
		}
	}
	return max
}

// WriteStats sums the write-path gauges and counters across shards.
func (v *View) WriteStats() lsm.WriteStats {
	var w lsm.WriteStats
	for _, sp := range v.shards {
		w.Add(sp.WriteStats())
	}
	return w
}

// PendingAppends returns the total number of appended records awaiting
// compaction across all shards.
func (v *View) PendingAppends() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, sp := range v.shards {
		n += sp.DeltaSize()
	}
	return n
}

// Compact folds each shard's write path into its tree, rebuilding only the
// shards with pending appends, and returns how many shards were rebuilt.
// Stored shards rebuild through a sibling file swapped in with an atomic
// rename (lsm.Part.Rebuild). The view stays open throughout.
func (v *View) Compact() (int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	rebuilt := 0
	for i, sp := range v.shards {
		if sp.DeltaSize() == 0 {
			continue
		}
		if err := sp.Rebuild(v.opts.params(i)); err != nil {
			return rebuilt, fmt.Errorf("shard: compacting shard %d: %w", i, err)
		}
		rebuilt++
	}
	return rebuilt, nil
}

// InjectFaults installs (or, with a zero plan, clears) a fault schedule on
// every shard disk, each with an independently mixed seed.
func (v *View) InjectFaults(p iosim.FaultPlan) { v.farm.SetFaultPlan(p) }

// KillShard makes every page of shard i permanently unreadable (sticky bad
// sectors), simulating the death of that shard's disk. Streams observe it
// as per-shard degradation; surviving shards keep serving.
func (v *View) KillShard(i int) {
	v.farm.SetFaultPlanOn(i, iosim.FaultPlan{Seed: 1, StickyRate: 1})
}

// ShardFsck reports one shard's checksum scrub: the corrupt pages found
// and what the scan cost on that shard's disk.
type ShardFsck struct {
	Shard  int
	Faults []core.PageFault
	// Reads and Cost are the scrub's own I/O on the shard disk (a
	// sequential pass over the shard file).
	Reads int64
	Cost  time.Duration
}

// Fsck verifies the stored checksums of every shard file, returning one
// report per shard. Shards whose scan itself fails (beyond detected
// corruption) surface the error; detected corruption is data, not error.
func (v *View) Fsck() ([]ShardFsck, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]ShardFsck, len(v.shards))
	for i, sp := range v.shards {
		disk := v.farm.Disk(i)
		before, t0 := disk.Counters(), disk.Now()
		faults, err := sp.Main().FsckPages()
		if err != nil {
			return out, fmt.Errorf("shard: fsck shard %d: %w", i, err)
		}
		after := disk.Counters()
		out[i] = ShardFsck{
			Shard:  i,
			Faults: faults,
			Reads:  after.Reads() - before.Reads(),
			Cost:   disk.Now() - t0,
		}
	}
	return out, nil
}

// SimNow returns the view's simulated time: the farm maximum, i.e. the
// busiest shard disk's clock.
func (v *View) SimNow() time.Duration { return v.farm.Now() }

// Stats returns a snapshot of the farm-wide counters.
func (v *View) Stats() Stats {
	return Stats{
		Counters: v.farm.Counters(),
		Faults:   v.farm.FaultCounters(),
		SimTime:  v.farm.Now(),
	}
}
