package iosim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file is the fault-injection layer of the simulated disk. A FaultPlan
// is a deterministic, seeded schedule of storage faults: whether a given
// page is flaky, dead, bit-rotted or slow is a pure function of the plan's
// seed and the page's identity, never of wall-clock time, goroutine
// scheduling or global state. Two runs with the same plan therefore inject
// byte-identical fault schedules, and a stream's fault counters are the
// same whether it runs alone or beside a hundred others.
//
// Faults are injected at read time by pagefile, which consults the file's
// Clock (the Sim's shared clock or a per-stream fork) via BeginRead before
// every read attempt. Transient faults are burst-shaped: a flaky page fails
// its first few read attempts *per clock* and then succeeds, so a bounded
// retry loop always makes progress and the schedule stays deterministic per
// stream at any concurrency. Sticky (dead) and corrupt pages are stateless
// per-page verdicts: every reader sees the same failure.

// FaultKind classifies a fault event for counting.
type FaultKind int

const (
	// FaultTransient: a read attempt failed transiently; a retry may succeed.
	FaultTransient FaultKind = iota
	// FaultLatency: an access was served after an injected latency spike.
	FaultLatency
	// FaultReread: a page was re-read after a checksum mismatch.
	FaultReread
	// FaultCorrupt: a page surfaced as corrupt after the reread budget.
	FaultCorrupt
	// FaultDead: a page was declared dead after the retry budget.
	FaultDead

	numFaultKinds
)

// FaultCounters aggregates fault activity observed by a Sim or Clock.
type FaultCounters struct {
	// Transient counts injected transient read failures (each one costs the
	// reader a retry).
	Transient int64
	// LatencySpikes counts accesses served after an injected latency spike.
	LatencySpikes int64
	// Rereads counts re-reads issued after a checksum mismatch.
	Rereads int64
	// CorruptPages counts reads that surfaced a corrupt page after
	// exhausting rereads.
	CorruptPages int64
	// DeadPages counts reads that exhausted the retry budget on an
	// unreadable (sticky-bad) page.
	DeadPages int64
}

// Add accumulates o into c (for summing across disks or clocks).
func (c *FaultCounters) Add(o FaultCounters) {
	c.Transient += o.Transient
	c.LatencySpikes += o.LatencySpikes
	c.Rereads += o.Rereads
	c.CorruptPages += o.CorruptPages
	c.DeadPages += o.DeadPages
}

// add folds kind counts indexed by FaultKind into the struct.
func (c *FaultCounters) add(k FaultKind, n int64) {
	switch k {
	case FaultTransient:
		c.Transient += n
	case FaultLatency:
		c.LatencySpikes += n
	case FaultReread:
		c.Rereads += n
	case FaultCorrupt:
		c.CorruptPages += n
	case FaultDead:
		c.DeadPages += n
	}
}

// DefaultReadAttempts is the per-read attempt budget pagefile uses when the
// plan does not override it: the first read plus up to three retries.
const DefaultReadAttempts = 4

// FaultPlan is a deterministic, seeded schedule of injected storage faults.
// The zero value injects nothing. All rates are probabilities in [0, 1]
// evaluated per page (sticky, corrupt, latency, flakiness) from the seed, so
// the schedule is a pure function of (Seed, file, page).
type FaultPlan struct {
	// Seed drives every fault decision. Plans with different seeds fail
	// different pages.
	Seed uint64

	// TransientRate is the per-page probability that a page is flaky. Reads
	// of a flaky page fail for the first burst attempts made by each clock
	// and succeed afterwards, modelling a transient bus/controller error
	// cleared by retrying.
	TransientRate float64
	// TransientBurst bounds the consecutive transient failures of a flaky
	// page (the actual burst is 1..TransientBurst, seeded per page).
	// Default 2. Bursts shorter than the read-attempt budget are absorbed by
	// the storage layer; longer bursts escape as typed TransientErrors for
	// the layers above to retry.
	TransientBurst int

	// LatencyRate is the per-page probability that accesses to the page
	// suffer an added LatencySpike of simulated service time.
	LatencyRate float64
	// LatencySpike is the added service time for latency-faulted pages.
	LatencySpike time.Duration

	// StickyRate is the per-page probability that a page is permanently
	// unreadable (a bad sector): every read attempt fails, and the storage
	// layer surfaces a dead-page error once its retries are exhausted.
	StickyRate float64

	// CorruptRate is the per-page probability that the page's stored image
	// is bit-rotted: reads succeed but return a frame with one deterministic
	// bit flipped, which per-page checksums detect.
	CorruptRate float64

	// MaxAttempts overrides the storage layer's per-read attempt budget
	// (first read + retries). 0 selects DefaultReadAttempts.
	MaxAttempts int
}

// Enabled reports whether the plan injects any faults at all.
func (p FaultPlan) Enabled() bool {
	return p.TransientRate > 0 || p.LatencyRate > 0 || p.StickyRate > 0 || p.CorruptRate > 0
}

// Quiet reports whether no read attempt of the page can fail, return rotted
// bytes or be delayed under the plan: the page is neither sticky, flaky,
// corrupt nor slow. It consults no attempt cursor and charges nothing.
func (p FaultPlan) Quiet(f FileID, page int64) bool {
	return p.fate(f, page, 0) == Fault{FlipBit: -1}
}

// Attempts returns the per-read attempt budget the plan prescribes.
func (p FaultPlan) Attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return DefaultReadAttempts
}

// Fault is the verdict for one read attempt of one page.
type Fault struct {
	// Transient: this attempt fails; retrying may succeed.
	Transient bool
	// Sticky: the page is permanently unreadable; every attempt fails.
	Sticky bool
	// FlipBit is the bit index to flip in the returned page image, or -1.
	// The index is reduced modulo the page size by the storage layer, and is
	// a per-page constant: bit rot is in the stored data, so every reader
	// observes the same corruption.
	FlipBit int64
	// Spike is the added service latency already charged for this attempt.
	Spike time.Duration
}

// salts separate the independent per-page fault decisions.
const (
	saltSticky  = 0x5bd1e995
	saltFlaky   = 0x9e3779b9
	saltBurst   = 0x85ebca6b
	saltCorrupt = 0xc2b2ae35
	saltBit     = 0x27d4eb2f
	saltLatency = 0x165667b1
)

// hash is splitmix64 over the plan seed and the page identity.
func (p FaultPlan) hash(f FileID, page int64, salt uint64) uint64 {
	x := p.Seed ^ (uint64(uint32(f))+1)*0x9e3779b97f4a7c15 ^ uint64(page)*0xbf58476d1ce4e5b9 ^ salt*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll maps a per-page hash to [0, 1).
func (p FaultPlan) roll(f FileID, page int64, salt uint64) float64 {
	return float64(p.hash(f, page, salt)>>11) / (1 << 53)
}

// burst returns the consecutive-failure run length of a flaky page.
func (p FaultPlan) burst(f FileID, page int64) int {
	b := p.TransientBurst
	if b <= 0 {
		b = 2
	}
	return 1 + int(p.hash(f, page, saltBurst)%uint64(b))
}

// fate returns the fault injected into read attempt number attempt (the
// clock's per-page attempt cursor) of the given page. It is a pure
// function of (plan, file, page, attempt).
func (p FaultPlan) fate(f FileID, page int64, attempt int) Fault {
	flt := Fault{FlipBit: -1}
	if p.StickyRate > 0 && p.roll(f, page, saltSticky) < p.StickyRate {
		flt.Sticky = true
		return flt
	}
	if p.TransientRate > 0 && p.roll(f, page, saltFlaky) < p.TransientRate &&
		attempt < p.burst(f, page) {
		flt.Transient = true
	}
	if p.CorruptRate > 0 && p.roll(f, page, saltCorrupt) < p.CorruptRate {
		flt.FlipBit = int64(p.hash(f, page, saltBit) >> 1)
	}
	if p.LatencyRate > 0 && p.LatencySpike > 0 && p.roll(f, page, saltLatency) < p.LatencyRate {
		flt.Spike = p.LatencySpike
	}
	return flt
}

// Profiles returns the named fault profiles, mildest first.
func Profiles() []string {
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return profileRank[names[i]] < profileRank[names[j]] })
	return names
}

var profiles = map[string]FaultPlan{
	// none: a disk that never fails; the control row of every chaos run.
	"none": {},
	// flaky-disk: transient read errors only, in bursts short enough for the
	// storage layer's bounded retry to absorb. Clients must see zero errors.
	"flaky-disk": {TransientRate: 0.05, TransientBurst: 2},
	// slow-disk: no failures, but a tail of slow accesses (vibration,
	// remapped tracks): 10% of pages pay an extra 25ms of service time.
	"slow-disk": {LatencyRate: 0.10, LatencySpike: 25 * time.Millisecond},
	// flaky-deep: transient bursts longer than the storage retry budget, so
	// typed transient errors escape to the serving layer and exercise
	// client-side retry. Still zero data loss.
	"flaky-deep": {TransientRate: 0.05, TransientBurst: 8, MaxAttempts: 3},
	// bitrot: 1% of pages have a flipped bit in their stored image. Per-page
	// checksums must detect every one; nothing silent.
	"bitrot": {CorruptRate: 0.01, TransientRate: 0.01, TransientBurst: 2},
	// bad-sector: 0.5% of pages are permanently unreadable; streams degrade
	// with typed errors naming the lost leaf.
	"bad-sector": {StickyRate: 0.005, TransientRate: 0.02, TransientBurst: 2},
	// hell: everything at once.
	"hell": {
		TransientRate: 0.08, TransientBurst: 6, MaxAttempts: 3,
		LatencyRate: 0.10, LatencySpike: 25 * time.Millisecond,
		StickyRate: 0.004, CorruptRate: 0.008,
	},
}

var profileRank = map[string]int{
	"none": 0, "flaky-disk": 1, "slow-disk": 2, "flaky-deep": 3,
	"bitrot": 4, "bad-sector": 5, "hell": 6,
}

// ProfilePlan returns the named fault profile with the given seed.
func ProfilePlan(name string, seed uint64) (FaultPlan, error) {
	p, ok := profiles[name]
	if !ok {
		return FaultPlan{}, fmt.Errorf("iosim: unknown fault profile %q (have %s)",
			name, strings.Join(Profiles(), ", "))
	}
	p.Seed = seed
	return p, nil
}

// attemptKey identifies a per-clock read-attempt cursor.
type attemptKey struct {
	file FileID
	page int64
}

// SetFaultPlan installs (or, with a zero plan, clears) the fault schedule.
// It may be called at any time; in-flight reads see either the old or the
// new plan.
func (s *Sim) SetFaultPlan(p FaultPlan) {
	if !p.Enabled() {
		s.plan.Store(nil)
		return
	}
	s.plan.Store(&p)
}

// FaultPlan returns the active fault schedule (zero if none).
func (s *Sim) FaultPlan() FaultPlan {
	if p := s.plan.Load(); p != nil {
		return *p
	}
	return FaultPlan{}
}

// FaultCounters returns a snapshot of fault activity across the Sim's
// shared clock and all its forks.
func (s *Sim) FaultCounters() FaultCounters {
	var c FaultCounters
	for k := FaultKind(0); k < numFaultKinds; k++ {
		c.add(k, s.faults[k].Load())
	}
	return c
}

// FaultPlan returns the fault schedule of the parent Sim (zero if none).
func (c *Clock) FaultPlan() FaultPlan { return c.parent.FaultPlan() }

// FaultCounters returns the clock's own fault counters.
func (c *Clock) FaultCounters() FaultCounters {
	c.lock()
	fc := c.faults
	c.unlock()
	return fc
}

// NoteFault records one fault outcome observed by the storage layer,
// mirroring it to the parent Sim.
func (c *Clock) NoteFault(k FaultKind) {
	c.lock()
	c.faults.add(k, 1)
	c.parent.faults[k].Add(1)
	c.unlock()
}

// BeginRead consults the fault plan for the clock's next read attempt of
// the page, against the clock's attempt cursors: the schedule a fork
// observes is a pure function of its own access sequence, identical at any
// concurrency. It advances the cursor (only pages the plan marks flaky are
// tracked), charges any injected latency spike to the clock, and counts
// transient and latency faults. With no plan installed it returns without
// taking the shared clock's lock.
func (c *Clock) BeginRead(f FileID, page int64) Fault {
	p := c.parent.plan.Load()
	if p == nil {
		return Fault{FlipBit: -1}
	}
	c.lock()
	attempt := 0
	if p.TransientRate > 0 && p.roll(f, page, saltFlaky) < p.TransientRate {
		k := attemptKey{f, page}
		if c.attempts == nil {
			c.attempts = make(map[attemptKey]int)
		}
		attempt = c.attempts[k]
		c.attempts[k] = attempt + 1
	}
	flt := p.fate(f, page, attempt)
	if flt.Transient {
		c.faults.Transient++
		c.parent.faults[FaultTransient].Add(1)
	}
	if flt.Spike > 0 {
		c.advance(flt.Spike)
		c.faults.LatencySpikes++
		c.parent.faults[FaultLatency].Add(1)
	}
	c.unlock()
	return flt
}
