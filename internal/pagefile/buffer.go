package pagefile

import (
	"container/list"
	"sync"
)

// PoolStats reports buffer pool activity.
type PoolStats struct {
	Hits, Misses, Evictions int64
}

// Pool is an LRU page cache: one list, one lock, one map. Reads that hit
// the pool cost no simulated time, which is exactly the behaviour the
// paper's B+-Tree and R-Tree sampling results depend on: once the leaf
// pages relevant to a small query range are resident, sample draws become
// free. Eviction takes the least recently used page of the whole pool.
//
// A Pool may cache pages from multiple files and is safe for concurrent
// use. Cached page contents are never handed out by reference: ReadInto
// copies the frame into the caller's buffer while the lock is held, so no
// caller can observe a frame being recycled by a concurrent eviction.
type Pool struct {
	mu       sync.Mutex
	capacity int
	// lru orders the frames, front = most recently used; values are *frame.
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
	return &Pool{capacity: max(capacity, 0), lru: list.New(), frames: make(map[frameKey]*list.Element)}
}

// Stats returns a snapshot of the hit/miss counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// ReadInto copies the contents of the given page into dst (at least one
// page long), reading it from f (and charging simulated time) only on a
// miss. The copy-out happens under the lock, so dst never aliases
// pool-owned memory.
func (p *Pool) ReadInto(f *File, page int64, dst []byte) error {
	key := frameKey{file: f.backend, page: page}
	p.mu.Lock()
	if el, ok := p.frames[key]; ok {
		p.stats.Hits++
		p.lru.MoveToFront(el)
		copy(dst[:f.pageSize], el.Value.(*frame).data)
		p.mu.Unlock()
		return nil
	}
	p.stats.Misses++
	p.mu.Unlock()

	// Miss: fault the page in without holding the lock (the simulated disk
	// serializes internally). Concurrent misses on the same page both pay
	// the charge, as two processes faulting the same page would.
	data := make([]byte, f.pageSize)
	if err := f.Read(page, data); err != nil {
		return err
	}
	copy(dst[:f.pageSize], data)
	if p.capacity == 0 {
		return nil
	}

	p.mu.Lock()
	if _, ok := p.frames[key]; !ok {
		if p.lru.Len() >= p.capacity {
			oldest := p.lru.Back()
			p.lru.Remove(oldest)
			delete(p.frames, oldest.Value.(*frame).key)
			p.stats.Evictions++
		}
		p.frames[key] = p.lru.PushFront(&frame{key: key, data: data})
	}
	p.mu.Unlock()
	return nil
}

// Contains reports whether the given page is currently cached.
func (p *Pool) Contains(f *File, page int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[frameKey{file: f.backend, page: page}]
	return ok
}

// Len returns the number of cached pages.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// Reset drops all cached pages and zeroes the statistics.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lru.Init()
	p.frames = make(map[frameKey]*list.Element)
	p.stats = PoolStats{}
}
