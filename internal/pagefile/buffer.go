package pagefile

import (
	"container/list"
	"sync"
)

// PoolStats reports buffer pool activity.
type PoolStats struct {
	Hits, Misses, Evictions int64
}

// Pool is a sharded LRU page cache. Reads that hit the pool cost no
// simulated time, which is exactly the behaviour the paper's B+-Tree and
// R-Tree sampling results depend on: once the leaf pages relevant to a
// small query range are resident, sample draws become free.
//
// A Pool may cache pages from multiple files and is safe for concurrent
// use: frames are striped over poolShards shards keyed by a hash of
// (file, page), each shard owning its own lock, LRU list and counters, so
// concurrent readers touching different pages rarely contend. Stats
// aggregates the per-shard counters.
//
// Cached page contents are never handed out by reference: ReadInto copies
// the frame into the caller's buffer while the shard lock is held, so no
// caller can observe a frame being recycled by a concurrent eviction (the
// slice-aliasing hazard the previous Read API documented but could not
// enforce).
type Pool struct {
	shards []poolShard
}

// poolShards is the number of lock stripes of a large pool. A small power
// of two keeps the per-shard LRU meaningful at typical pool sizes while
// removing most lock contention. Pools too small to give every shard a
// useful working set (below minShardPages per stripe) use a single shard,
// which also preserves exact global-LRU eviction for the tiny pools the
// ablation benchmarks sweep.
const (
	poolShards    = 8
	minShardPages = 8
)

type poolShard struct {
	mu       sync.Mutex
	capacity int
	// lru orders the shard's frames, front = most recently used; values
	// are *frame.
	lru    *list.List                 // guarded by mu
	frames map[frameKey]*list.Element // guarded by mu
	stats  PoolStats                  // guarded by mu
}

// frameKey identifies a cached page by the file's backend, which is shared
// between a File and its OnClock views, so clocked streams hit frames
// cached by one another.
type frameKey struct {
	file Backend
	page int64
}

type frame struct {
	key  frameKey
	data []byte
}

// NewPool returns a pool holding up to capacity pages. A capacity of zero
// disables caching (every read misses).
func NewPool(capacity int) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	nshards := poolShards
	if capacity < poolShards*minShardPages {
		nshards = 1
	}
	p := &Pool{shards: make([]poolShard, nshards)}
	for i := range p.shards {
		// Distribute capacity over the shards, rounding so that the total
		// capacity is preserved exactly.
		lo := capacity * i / nshards
		hi := capacity * (i + 1) / nshards
		p.shards[i] = poolShard{
			capacity: hi - lo,
			lru:      list.New(),
			frames:   make(map[frameKey]*list.Element),
		}
	}
	return p
}

// shard maps a (file, page) key onto its stripe. The file's simulated-disk
// ID keeps the mapping stable and deterministic across runs.
func (p *Pool) shard(f *File, page int64) *poolShard {
	if len(p.shards) == 1 {
		return &p.shards[0]
	}
	h := (uint64(uint32(f.id))<<32 ^ uint64(page)) * 0x9e3779b97f4a7c15
	return &p.shards[h>>56%uint64(len(p.shards))]
}

// Stats returns a snapshot of the aggregated hit/miss counters.
func (p *Pool) Stats() PoolStats {
	var st PoolStats
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		st.Hits += s.stats.Hits
		st.Misses += s.stats.Misses
		st.Evictions += s.stats.Evictions
		s.mu.Unlock()
	}
	return st
}

// ReadInto copies the contents of the given page into dst (at least one
// page long), reading it from f (and charging simulated time) only on a
// miss. The copy-out happens under the shard lock, so dst never aliases
// pool-owned memory.
func (p *Pool) ReadInto(f *File, page int64, dst []byte) error {
	key := frameKey{file: f.backend, page: page}
	s := p.shard(f, page)
	s.mu.Lock()
	if el, ok := s.frames[key]; ok {
		s.stats.Hits++
		s.lru.MoveToFront(el)
		copy(dst[:f.pageSize], el.Value.(*frame).data)
		s.mu.Unlock()
		return nil
	}
	s.stats.Misses++
	s.mu.Unlock()

	// Miss: fault the page in without holding the lock (the simulated disk
	// serializes internally). Concurrent misses on the same page both pay
	// the charge, as two processes faulting the same page would.
	data := make([]byte, f.pageSize)
	if err := f.Read(page, data); err != nil {
		return err
	}
	copy(dst[:f.pageSize], data)
	if s.capacity == 0 {
		return nil
	}

	s.mu.Lock()
	if _, ok := s.frames[key]; !ok {
		if s.lru.Len() >= s.capacity {
			oldest := s.lru.Back()
			s.lru.Remove(oldest)
			delete(s.frames, oldest.Value.(*frame).key)
			s.stats.Evictions++
		}
		s.frames[key] = s.lru.PushFront(&frame{key: key, data: data})
	}
	s.mu.Unlock()
	return nil
}

// Contains reports whether the given page is currently cached.
func (p *Pool) Contains(f *File, page int64) bool {
	s := p.shard(f, page)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.frames[frameKey{file: f.backend, page: page}]
	return ok
}

// Len returns the number of cached pages.
func (p *Pool) Len() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Reset drops all cached pages and zeroes the statistics.
func (p *Pool) Reset() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.lru.Init()
		s.frames = make(map[frameKey]*list.Element)
		s.stats = PoolStats{}
		s.mu.Unlock()
	}
}
