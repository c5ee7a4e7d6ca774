package sampleview

import (
	"sampleview/internal/catalog"
	"sampleview/internal/shard"
)

// Sharded-view types, re-exported so callers can build and serve multi-disk
// partitioned views without importing internal packages.
type (
	// ShardedOptions configures sharded view creation: shard count K,
	// partitioning scheme, per-shard tree layout, and the shared fault plan.
	ShardedOptions = shard.Options
	// ShardPartition selects how records map to shards.
	ShardPartition = shard.Partition
	// ShardError wraps a per-shard stream failure with the shard index; it
	// unwraps to the underlying error, so IsTransient and IsDegraded see
	// through it.
	ShardError = shard.ShardError
	// ShardFsck is one shard's checksum-scrub report.
	ShardFsck = shard.ShardFsck
	// Catalog is a named-view registry with persistence and background
	// maintenance (compaction, checksum scrubbing) on simulated clocks.
	Catalog = catalog.Catalog
	// CatalogPolicy tunes the catalog's background maintenance jobs.
	CatalogPolicy = catalog.Policy
	// CatalogInfo describes one registered view: shape, staleness, health.
	CatalogInfo = catalog.Info
	// JobReport describes one completed background maintenance job.
	JobReport = catalog.JobReport
)

// Partitioning schemes for sharded views.
const (
	// HashBySeq spreads records across shards by hashing the insertion
	// sequence number: shard sizes stay balanced whatever the key skew.
	HashBySeq = shard.HashBySeq
	// RangeByKey assigns each shard a contiguous key range, so narrow key
	// predicates touch few shards.
	RangeByKey = shard.RangeByKey
)

// Catalog health states reported by CatalogInfo.
const (
	HealthOK       = catalog.HealthOK
	HealthStale    = catalog.HealthStale
	HealthDegraded = catalog.HealthDegraded
)

// NewCatalog opens (or creates) a view catalog rooted at dir; an empty dir
// keeps every view in memory. runtime supplies the layout defaults applied
// when stored views are reopened; policy schedules background maintenance.
func NewCatalog(dir string, runtime ShardedOptions, policy CatalogPolicy) (*Catalog, error) {
	return catalog.New(dir, runtime, policy)
}

// Sharded view and stream: the partitioned counterparts of View and Stream,
// sharing ErrStreamClosed with them.
type (
	// ShardedView is a sample view partitioned across K simulated disks. Each
	// shard holds an independent ACE tree over its partition; Query merges the
	// K per-shard online streams into one stream with the same uniformity
	// guarantee as an unsharded view, while the shards' I/O proceeds in
	// parallel on separate spindles.
	ShardedView = shard.View
	// ShardedStream is an online random sample merged from K per-shard
	// streams. Fault semantics mirror the unsharded Stream per shard:
	// transient faults surface as retriable errors and a dead shard degrades
	// (the survivors keep serving), both wrapped in *ShardError naming the
	// shard.
	ShardedStream = shard.Stream
)

// CreateSharded builds a sharded view over recs in dir (one file per shard
// plus a manifest; empty dir keeps the view in memory).
func CreateSharded(dir string, recs []Record, opts ShardedOptions) (*ShardedView, error) {
	return shard.Create(dir, recs, opts)
}

// OpenSharded opens a sharded view previously stored by CreateSharded.
func OpenSharded(dir string, opts ShardedOptions) (*ShardedView, error) {
	return shard.Open(dir, opts)
}
