// Package catalog manages named sharded sample views: registration,
// opening, dropping, a persisted manifest, and per-view staleness and
// health state. It is the control plane the serving layer hosts so clients
// can open views by name, and it owns the background maintenance the
// paper's Section IX sketch calls for: folding differential buffers into
// the shard trees (compaction) and scrubbing stored checksums (fsck), both
// scheduled on simulated clocks only — the catalog never consults the wall
// clock, so maintenance timing is as deterministic as everything else.
package catalog

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"sampleview/internal/lsm"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/shard"
)

// ManifestName is the catalog's metadata file within its root directory.
const ManifestName = "catalog.json"

// viewsSubdir is where registered views' directories live under the root.
const viewsSubdir = "views"

// nameRE validates view names: path-safe, no traversal, bounded length.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// Policy tunes the background-maintenance scheduler.
type Policy struct {
	// FlushThreshold is the in-memory ingest size (buffered records plus
	// tombstones, summed over a view's shards) at which a memview flush to
	// a level-0 delta file is due. 0 disables flush jobs.
	FlushThreshold int
	// MaxDeltaLevels is the delta-ladder depth above which a level merge is
	// forced; while merge jobs are enabled (> 0), naturally due size-tiered
	// merges also run. 0 disables merge jobs.
	MaxDeltaLevels int
	// CompactThreshold is the pending-ingest count (memview plus delta
	// levels) at which a view is due for a full fold rebuilding its shard
	// trees. 0 disables compaction jobs.
	CompactThreshold int
	// ScrubEvery is the simulated-time interval between checksum scrubs of
	// each view. 0 disables scrub jobs.
	ScrubEvery time.Duration
}

// Health states reported in Info.
const (
	HealthOK       = "ok"
	HealthStale    = "stale"    // pending appends awaiting compaction
	HealthDegraded = "degraded" // at least one shard with detected damage
)

// Info describes one registered view.
type Info struct {
	Name           string
	K              int
	Partition      shard.Partition
	Count          int64
	PendingAppends int
	Health         string
	// Write sums the write-path gauges and counters over the view's shards.
	Write lsm.WriteStats
	// DeltaLevels is the deepest delta ladder across the view's shards.
	DeltaLevels int
	// DegradedShards lists shards the last scrub found damage on.
	DegradedShards []int
	// LastScrub is the view's simulated time at the end of its last scrub
	// (zero if never scrubbed).
	LastScrub time.Duration
}

// JobReport describes one background job run by RunDueJobs.
type JobReport struct {
	View string
	// Kind is "flush", "merge", "compact" or "scrub".
	Kind string
	// ShardsRebuilt counts shards compaction folded (compact jobs).
	ShardsRebuilt int
	// ShardsMerged counts shards that merged a delta-level pair (merge jobs).
	ShardsMerged int
	// FaultsFound counts corrupt pages the scrub surfaced (scrub jobs).
	FaultsFound int
	// Cost is the simulated time the job charged to the view's disks.
	Cost time.Duration
	// Err is set when the job failed; the view stays registered.
	Err error
}

// manifest is the persisted catalog state.
type manifest struct {
	Views []manifestEntry `json:"views"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Dir  string `json:"dir"` // relative to the catalog root
}

// entry is one registered view plus its maintenance state.
type entry struct {
	name      string
	dir       string // absolute; "" when in-memory
	view      *shard.View
	lastScrub time.Duration // view sim time at the end of the last scrub
	degraded  map[int]bool  // shards the last scrub found damage on
}

// Catalog is a set of named sharded views with background maintenance.
// Safe for concurrent use; all state serializes on one mutex (background
// jobs hold it for their duration, which is why the serving layer triggers
// them between request bursts).
type Catalog struct {
	root    string        // "" = fully in-memory, no persistence
	runtime shard.Options // runtime knobs applied when opening views
	policy  Policy

	mu      sync.Mutex
	entries map[string]*entry // guarded by mu
}

// New creates or loads a catalog rooted at root. An empty root keeps the
// catalog (and every view registered with it) in memory. runtime supplies
// the knobs (disk model, fault plan, parallelism) applied when opening
// stored views; layout fields come from each view's own manifest.
func New(root string, runtime shard.Options, policy Policy) (*Catalog, error) {
	c := &Catalog{
		root:    root,
		runtime: runtime,
		policy:  policy,
		entries: make(map[string]*entry),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if root == "" {
		return c, nil
	}
	if err := pagefile.MkdirAll(root); err != nil {
		return nil, fmt.Errorf("catalog: creating root: %w", err)
	}
	// A crash between writing the temp manifest and renaming it leaves a
	// (possibly partial) .tmp behind; the load discards it, since the
	// committed manifest is still the authority.
	var m manifest
	err := pagefile.LoadJSON(filepath.Join(root, ManifestName), &m)
	if errors.Is(err, fs.ErrNotExist) {
		return c, c.saveLocked()
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: reading manifest: %w", err)
	}
	for _, me := range m.Views {
		if !nameRE.MatchString(me.Name) {
			return nil, fmt.Errorf("catalog: manifest names invalid view %q", me.Name)
		}
		dir := filepath.Join(root, me.Dir)
		v, err := shard.Open(dir, runtime)
		if err != nil {
			c.closeLocked()
			return nil, fmt.Errorf("catalog: opening view %q: %w", me.Name, err)
		}
		c.entries[me.Name] = &entry{name: me.Name, dir: dir, view: v,
			degraded: map[int]bool{}}
	}
	return c, nil
}

// saveLocked persists the manifest. Callers hold mu (or own the catalog
// exclusively, as New does).
func (c *Catalog) saveLocked() error {
	if c.root == "" {
		return nil
	}
	var m manifest
	for _, e := range c.entries {
		rel, err := filepath.Rel(c.root, e.dir)
		if err != nil {
			return fmt.Errorf("catalog: relativizing %q: %w", e.dir, err)
		}
		m.Views = append(m.Views, manifestEntry{Name: e.name, Dir: rel})
	}
	sort.Slice(m.Views, func(i, j int) bool { return m.Views[i].Name < m.Views[j].Name })
	if err := pagefile.SaveJSON(filepath.Join(c.root, ManifestName), m, nil); err != nil {
		return fmt.Errorf("catalog: saving manifest: %w", err)
	}
	return nil
}

// Register builds a new sharded view over recs and adds it under name. The
// view's files live under <root>/views/<name> (in memory for a rootless
// catalog). Registering an existing name fails; Drop it first.
func (c *Catalog) Register(name string, recs []record.Record, opts shard.Options) (*shard.View, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("catalog: invalid view name %q", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		return nil, fmt.Errorf("catalog: view %q already registered", name)
	}
	dir := ""
	if c.root != "" {
		dir = filepath.Join(c.root, viewsSubdir, name)
	}
	v, err := shard.Create(dir, recs, opts)
	if err != nil {
		return nil, err
	}
	c.entries[name] = &entry{name: name, dir: dir, view: v, degraded: map[int]bool{}}
	if err := c.saveLocked(); err != nil {
		v.Close()
		delete(c.entries, name)
		return nil, err
	}
	return v, nil
}

// Get returns the named view, or false if it is not registered.
func (c *Catalog) Get(name string) (*shard.View, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, false
	}
	return e.view, true
}

// Drop closes the named view, removes its files and unregisters it.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("catalog: view %q not registered", name)
	}
	delete(c.entries, name)
	if err := c.saveLocked(); err != nil {
		return err
	}
	e.view.Close()
	if e.dir != "" {
		if err := pagefile.Remove(e.dir); err != nil {
			return fmt.Errorf("catalog: removing view %q files: %w", name, err)
		}
	}
	return nil
}

// List returns every registered view's info, sorted by name.
func (c *Catalog) List() []Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Info, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, c.infoLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// infoLocked snapshots one entry's info. Callers hold mu.
func (c *Catalog) infoLocked(e *entry) Info {
	info := Info{
		Name:           e.name,
		K:              e.view.K(),
		Partition:      e.view.Partitioning(),
		Count:          e.view.Count(),
		PendingAppends: e.view.PendingAppends(),
		Write:          e.view.WriteStats(),
		DeltaLevels:    e.view.DeltaLevels(),
		LastScrub:      e.lastScrub,
		Health:         HealthOK,
	}
	for i := range e.degraded {
		info.DegradedShards = append(info.DegradedShards, i)
	}
	sort.Ints(info.DegradedShards)
	switch {
	case len(info.DegradedShards) > 0:
		info.Health = HealthDegraded
	case info.PendingAppends > 0:
		info.Health = HealthStale
	}
	return info
}

// Len returns the number of registered views.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Close closes every view; the catalog must not be used afterwards.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeLocked()
}

func (c *Catalog) closeLocked() error {
	var first error
	for _, e := range c.entries {
		if err := e.view.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.entries = make(map[string]*entry)
	return first
}

// RunDueJobs runs every background job the policy says is due — memview
// flushes for views whose ingest buffers reached FlushThreshold, delta
// merges for views whose ladders are due (forced past MaxDeltaLevels), a
// full fold for views whose pending ingest reached CompactThreshold, and a
// checksum scrub for views whose simulated clock advanced ScrubEvery past
// their last scrub — and reports what ran. Due-ness is evaluated on the
// views' simulated clocks only. The catalog lock is held throughout, so
// callers schedule it between request bursts (see TryRunDueJobs).
func (c *Catalog) RunDueJobs() []JobReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runDueJobsLocked()
}

// TryRunDueJobs is RunDueJobs if the catalog lock is immediately
// available, and a no-op (false) otherwise: the serving layer calls it
// whenever a burst of requests drains, without ever blocking a request.
func (c *Catalog) TryRunDueJobs() ([]JobReport, bool) {
	if !c.mu.TryLock() {
		return nil, false
	}
	defer c.mu.Unlock()
	return c.runDueJobsLocked(), true
}

func (c *Catalog) runDueJobsLocked() []JobReport {
	var reports []JobReport
	names := make([]string, 0, len(c.entries))
	for name := range c.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := c.entries[name]
		// Write-path order mirrors the data's: memview → level 0 (flush),
		// level merges (ladder shape), then the full fold (compact).
		if c.policy.FlushThreshold > 0 {
			w := e.view.WriteStats()
			if int(w.MemViewRecords+w.MemViewTombstones) >= c.policy.FlushThreshold {
				reports = append(reports, c.flushLocked(e))
			}
		}
		if c.policy.MaxDeltaLevels > 0 && e.view.DeltaLevels() >= 2 {
			reports = append(reports, c.mergeLocked(e, e.view.DeltaLevels() > c.policy.MaxDeltaLevels))
		}
		if c.policy.CompactThreshold > 0 && e.view.PendingAppends() >= c.policy.CompactThreshold {
			reports = append(reports, c.compactLocked(e))
		}
		if c.policy.ScrubEvery > 0 && e.view.SimNow()-e.lastScrub >= c.policy.ScrubEvery {
			reports = append(reports, c.scrubLocked(e))
		}
	}
	return reports
}

// flushLocked seals e's shard ingest buffers into level-0 delta files.
func (c *Catalog) flushLocked(e *entry) JobReport {
	r := JobReport{View: e.name, Kind: "flush"}
	t0 := e.view.SimNow()
	r.Err = e.view.Flush()
	r.Cost = e.view.SimNow() - t0
	return r
}

// mergeLocked runs one size-tiered delta-compaction round per shard of e.
// Faults follow the view contracts: a failed merge surfaces in Err while
// the ladder keeps its old levels, and open streams are never blocked.
func (c *Catalog) mergeLocked(e *entry, force bool) JobReport {
	r := JobReport{View: e.name, Kind: "merge"}
	t0 := e.view.SimNow()
	n, err := e.view.CompactDeltas(force)
	r.ShardsMerged, r.Err = n, err
	r.Cost = e.view.SimNow() - t0
	return r
}

// compactLocked folds e's differential buffers into its shard trees.
func (c *Catalog) compactLocked(e *entry) JobReport {
	r := JobReport{View: e.name, Kind: "compact"}
	t0 := e.view.SimNow()
	n, err := e.view.Compact()
	r.ShardsRebuilt, r.Err = n, err
	r.Cost = e.view.SimNow() - t0
	return r
}

// scrubLocked verifies e's stored checksums and refreshes its health.
func (c *Catalog) scrubLocked(e *entry) JobReport {
	r := JobReport{View: e.name, Kind: "scrub"}
	t0 := e.view.SimNow()
	reports, err := e.view.Fsck()
	r.Err = err
	degraded := map[int]bool{}
	for _, sf := range reports {
		if len(sf.Faults) > 0 {
			degraded[sf.Shard] = true
			r.FaultsFound += len(sf.Faults)
		}
	}
	if err == nil {
		e.degraded = degraded
	}
	e.lastScrub = e.view.SimNow()
	r.Cost = e.view.SimNow() - t0
	return r
}
