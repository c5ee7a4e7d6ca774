// Package iosim provides a deterministic cost model for rotating-disk I/O.
//
// The paper's experiments were run on 15,000 RPM SCSI disks circa 2006
// (~100 random I/Os per second, ~53 MB/s sequential transfer, 64 KB pages).
// All of its figures normalize elapsed time to "% of the time required to
// scan the relation", so the quantity that determines every curve shape is
// the ratio of a random page access to a sequential page transfer, together
// with the access pattern each algorithm generates. This package replays
// exactly that: a Sim owns a virtual clock and per-file disk-head positions;
// each page access advances the clock by either the random service time or
// the sequential transfer time depending on whether the head is already
// positioned past the preceding page of the same file.
//
// Structures never look at the clock to make decisions; it exists purely so
// the benchmark harness can plot samples-retrieved against simulated time on
// the same axes the paper uses.
//
// # Concurrency
//
// Only a Clock charges: the cost rule and the flaky-page attempt cursors
// live there alone. A Clock classifies each access against its own head
// state and cursors and contributes every charge to its Sim's totals with
// atomic additions, which commute. Each Sim has one shared Clock (Sim.Clock),
// which files opened on the Sim charge by default; it takes a lock, so any
// goroutine may charge it. But random-versus-sequential classification
// depends on the order in which accesses move the disk head, so charging the
// shared clock from several goroutines makes the split between the counters
// (and hence the clock) depend on goroutine scheduling. Workers that need
// deterministic accounting therefore charge a private fork each (Sim.Fork),
// which takes no lock: its reading is exactly what a single-stream run would
// measure, regardless of what other streams do, and the Sim's aggregate
// clock and counters are the same for any interleaving and any worker count.
package iosim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Model describes the disk being simulated.
type Model struct {
	// RandomRead is the full service time of a page read that requires
	// repositioning the head (seek + rotational delay + transfer).
	RandomRead time.Duration
	// SequentialRead is the cost of transferring one page when the head is
	// already positioned immediately before it.
	SequentialRead time.Duration
	// RandomWrite and SequentialWrite are the corresponding write costs.
	RandomWrite, SequentialWrite time.Duration
	// PageSize is the size of one disk page in bytes.
	PageSize int
}

// DefaultModel returns a model calibrated to the paper's testbed: 64 KB
// pages, 100 random I/Os per second and a sequential rate that scans 20 GB
// in the ~375 s the paper's x-axes imply (~53 MB/s, i.e. 1.2 ms per page).
func DefaultModel() Model {
	return Model{
		RandomRead:      10 * time.Millisecond,
		SequentialRead:  1200 * time.Microsecond,
		RandomWrite:     10 * time.Millisecond,
		SequentialWrite: 1200 * time.Microsecond,
		PageSize:        64 * 1024,
	}
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if m.PageSize <= 0 {
		return fmt.Errorf("iosim: page size must be positive, got %d", m.PageSize)
	}
	if m.RandomRead <= 0 || m.SequentialRead <= 0 || m.RandomWrite <= 0 || m.SequentialWrite <= 0 {
		return fmt.Errorf("iosim: all access costs must be positive")
	}
	return nil
}

// FileID identifies a file registered with a Sim.
type FileID int32

// Counters aggregates the I/O activity observed by a Sim.
type Counters struct {
	RandomReads      int64
	SequentialReads  int64
	RandomWrites     int64
	SequentialWrites int64
}

// Reads returns the total number of page reads.
func (c Counters) Reads() int64 { return c.RandomReads + c.SequentialReads }

// Writes returns the total number of page writes.
func (c Counters) Writes() int64 { return c.RandomWrites + c.SequentialWrites }

// Add accumulates o into c (for summing across disks or clocks).
func (c *Counters) Add(o Counters) {
	c.RandomReads += o.RandomReads
	c.SequentialReads += o.SequentialReads
	c.RandomWrites += o.RandomWrites
	c.SequentialWrites += o.SequentialWrites
}

// Sim is a simulated disk: the totals of every Clock charging it, the fault
// and crash schedules, and the shared Clock. All methods are safe for
// concurrent use.
type Sim struct {
	model Model

	now      atomic.Int64 // accumulated nanoseconds
	counters [4]atomic.Int64
	files    atomic.Int32 // FileIDs handed out by Register

	// clock is the shared Clock (see Clock). Its head and attempt cursors
	// are its own, apart from every fork's.
	clock *Clock

	// plan is the active fault schedule; nil means no faults.
	plan   atomic.Pointer[FaultPlan]
	faults [numFaultKinds]atomic.Int64

	// crashMu guards the crash schedule and the crashed state; syncs counts
	// durability barriers (see crash.go).
	crashMu   sync.Mutex
	crashPlan CrashPlan             // guarded by crashMu
	crashErr  *CrashError           // guarded by crashMu; non-nil once power is cut
	crashHits [numCrashPoints]int64 // guarded by crashMu; per-point encounter counts
	syncs     atomic.Int64
}

// indices into the counter array.
const (
	cRandomRead = iota
	cSeqRead
	cRandomWrite
	cSeqWrite
)

// New returns a Sim using the given model. It panics if the model is
// invalid, which indicates a programming error in experiment setup.
func New(model Model) *Sim {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	s := &Sim{model: model}
	s.clock = s.Fork()
	s.clock.mu = new(sync.Mutex)
	return s
}

// Model returns the disk model in use.
func (s *Sim) Model() Model { return s.model }

// Register allocates a FileID for a new file on this disk.
func (s *Sim) Register() FileID { return FileID(s.files.Add(1) - 1) }

// Now returns the current simulated time: the total disk-busy time of every
// access charged to the Sim's shared clock or to a fork.
func (s *Sim) Now() time.Duration { return time.Duration(s.now.Load()) }

// Counters returns a snapshot of the I/O counters.
func (s *Sim) Counters() Counters {
	return Counters{
		RandomReads:      s.counters[cRandomRead].Load(),
		SequentialReads:  s.counters[cSeqRead].Load(),
		RandomWrites:     s.counters[cRandomWrite].Load(),
		SequentialWrites: s.counters[cSeqWrite].Load(),
	}
}

// Advance adds d of pure computation time to the clock. The reproduction is
// I/O-bound like the paper's testbed, so this is rarely used, but it lets
// harnesses model CPU-heavy consumers if desired.
func (s *Sim) Advance(d time.Duration) {
	if d > 0 {
		s.now.Add(int64(d))
	}
}

// ScanCost returns the time a pure sequential scan of n pages would take:
// one random access to position the head followed by n-1 sequential
// transfers. This is the paper's baseline "time required to scan the
// relation".
func (s *Sim) ScanCost(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return s.model.RandomRead + time.Duration(n-1)*s.model.SequentialRead
}

// Clock returns the Sim's shared clock, which files opened on the Sim and
// the write-ahead log charge. It is the only Clock safe for concurrent use.
func (s *Sim) Clock() *Clock { return s.clock }

// Fork returns a fresh Clock contributing to s. The Clock starts at time
// zero with the head unpositioned and fresh fault-attempt cursors, so its
// elapsed time, counters and fault schedule are exactly those of a single
// stream running alone on a disk of the same model and fault plan.
func (s *Sim) Fork() *Clock {
	return &Clock{
		model:    s.model,
		parent:   s,
		headFile: -1,
		head:     make(map[FileID]int64),
		attempts: make(map[attemptKey]int),
	}
}

// Clock charges page accesses against its own head state, simulated time
// and counters. A fork (Sim.Fork) is a private clock for one stream or
// worker and is NOT safe for concurrent use; each goroutine charges its own.
// The Sim's shared clock (Sim.Clock) is the one exception: it locks around
// every call. Every charge also flows into the parent Sim's clock and
// counters, so shared totals stay complete (and deterministic, because
// contributions commute) while the Clock's own state gives the stream's
// single-stream cost.
type Clock struct {
	model    Model
	parent   *Sim        // never nil: Fork is the only constructor
	mu       sync.Locker // set on the shared clock alone; forks lock nothing
	now      time.Duration
	counters Counters
	headFile FileID           // file the head is in, or -1 before the first access
	head     map[FileID]int64 // per file, the page after the last one accessed

	// attempts holds the clock's per-page read-attempt cursors, so a fork's
	// fault schedule depends only on its own access sequence — never on what
	// concurrent streams do.
	attempts map[attemptKey]int
	faults   FaultCounters
}

// lock and unlock guard the shared clock; on a fork they cost a nil check
// each. No charge can panic, so the calls pair up without a defer, and mu is
// a Locker so that both inline: a defer or a call would cost every fork's
// hot path.
func (c *Clock) lock() {
	if c.mu != nil {
		c.mu.Lock()
	}
}

func (c *Clock) unlock() {
	if c.mu != nil {
		c.mu.Unlock()
	}
}

// Sim returns the simulated disk the clock charges.
func (c *Clock) Sim() *Sim { return c.parent }

// Now returns the clock's elapsed simulated time.
func (c *Clock) Now() time.Duration {
	c.lock()
	now := c.now
	c.unlock()
	return now
}

// Counters returns the clock's own I/O counters.
func (c *Clock) Counters() Counters {
	c.lock()
	ctr := c.counters
	c.unlock()
	return ctr
}

// Advance adds d of pure computation time to the clock (and the parent's).
func (c *Clock) Advance(d time.Duration) {
	c.lock()
	c.advance(d)
	c.unlock()
}

func (c *Clock) advance(d time.Duration) {
	if d > 0 {
		c.now += d
		c.parent.now.Add(int64(d))
	}
}

// sequential classifies an access against the clock's head state.
func (c *Clock) sequential(f FileID, page int64) bool {
	seq := c.headFile == f && c.head[f] == page
	c.headFile = f
	c.head[f] = page + 1
	return seq
}

// charge records n accesses of the given kind (a counter index), d each, in
// the clock's counter ctr and the parent's totals.
func (c *Clock) charge(kind int, n int64, d time.Duration, ctr *int64) {
	d *= time.Duration(n)
	c.now += d
	*ctr += n
	c.parent.counters[kind].Add(n)
	c.parent.now.Add(int64(d))
}

// ReadPage charges the clock for reading the given page of file f.
func (c *Clock) ReadPage(f FileID, page int64) { c.ReadPages(f, page, 1) }

// ReadPages charges the clock for reading the n pages of file f from page
// on, as n ReadPage calls would: the first classified by the head, the rest
// sequential.
func (c *Clock) ReadPages(f FileID, page, n int64) {
	if n <= 0 {
		return
	}
	c.lock()
	if c.sequential(f, page) {
		c.charge(cSeqRead, 1, c.model.SequentialRead, &c.counters.SequentialReads)
	} else {
		c.charge(cRandomRead, 1, c.model.RandomRead, &c.counters.RandomReads)
	}
	if n--; n > 0 {
		c.head[f] = page + 1 + n
		c.charge(cSeqRead, n, c.model.SequentialRead, &c.counters.SequentialReads)
	}
	c.unlock()
}

// WritePage charges the clock for writing the given page of file f.
func (c *Clock) WritePage(f FileID, page int64) {
	c.lock()
	if c.sequential(f, page) {
		c.charge(cSeqWrite, 1, c.model.SequentialWrite, &c.counters.SequentialWrites)
	} else {
		c.charge(cRandomWrite, 1, c.model.RandomWrite, &c.counters.RandomWrites)
	}
	c.unlock()
}
