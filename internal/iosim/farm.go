package iosim

import "time"

// Farm is a bank of K independent simulated disks, one per shard of a
// partitioned view. Each disk is a full *Sim with its own clock, head
// state and fault schedule, so shard I/O proceeds in parallel exactly the
// way K physical spindles would: work charged to disk i never moves disk
// j's head or clock.
//
// Farm-level time is the max of the member clocks — the wall time a
// harness would observe waiting for all spindles — while the counters sum,
// giving total I/O work. All methods are safe for concurrent use (the
// slice is immutable after New; members synchronize internally).
type Farm struct {
	sims []*Sim
}

// NewFarm returns a Farm of k disks of the given model. It panics if k is
// not positive or the model is invalid, which indicates a programming
// error in experiment setup.
func NewFarm(model Model, k int) *Farm {
	if k <= 0 {
		panic("iosim: farm needs at least one disk")
	}
	sims := make([]*Sim, k)
	for i := range sims {
		sims[i] = New(model)
	}
	return &Farm{sims: sims}
}

// K returns the number of disks.
func (f *Farm) K() int { return len(f.sims) }

// Disk returns disk i.
func (f *Farm) Disk(i int) *Sim { return f.sims[i] }

// Model returns the disk model in use (all members share it).
func (f *Farm) Model() Model { return f.sims[0].Model() }

// Now returns the farm's elapsed simulated time: the maximum over the
// member disks, i.e. the time at which the slowest spindle finishes the
// work charged so far.
func (f *Farm) Now() time.Duration {
	var max time.Duration
	for _, s := range f.sims {
		if n := s.Now(); n > max {
			max = n
		}
	}
	return max
}

// Counters returns the summed I/O counters of every disk.
func (f *Farm) Counters() Counters {
	var t Counters
	for _, s := range f.sims {
		t.Add(s.Counters())
	}
	return t
}

// FaultCounters returns the summed fault counters of every disk.
func (f *Farm) FaultCounters() FaultCounters {
	var t FaultCounters
	for _, s := range f.sims {
		t.Add(s.FaultCounters())
	}
	return t
}

// SetFaultPlan installs the plan on every disk. Disk i gets the plan with
// its seed mixed with the disk index, so shards fail independently rather
// than in lockstep (a plan with TransientRate 0.1 makes each shard's pages
// flaky independently, as separate spindles would be).
func (f *Farm) SetFaultPlan(p FaultPlan) {
	for i, s := range f.sims {
		dp := p
		dp.Seed = p.Seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))
		s.SetFaultPlan(dp)
	}
}

// SetFaultPlanOn installs the plan on disk i only, leaving the other
// disks' schedules untouched (targeted shard-kill scenarios).
func (f *Farm) SetFaultPlanOn(i int, p FaultPlan) {
	f.sims[i].SetFaultPlan(p)
}

// ScanCost returns the time a pure sequential scan of n pages on a single
// member disk would take (the paper's normalization baseline; sharding
// does not change the baseline, which is defined against one spindle).
func (f *Farm) ScanCost(n int64) time.Duration { return f.sims[0].ScanCost(n) }
