package iosim

import (
	"testing"
	"time"
)

// TestFaultPlanDeterminism verifies that a plan's fault schedule is a pure
// function of (seed, file, page, attempt): byte-identical across plan
// copies, and different under a different seed.
func TestFaultPlanDeterminism(t *testing.T) {
	plan := FaultPlan{
		Seed: 42, TransientRate: 0.2, TransientBurst: 3,
		StickyRate: 0.02, CorruptRate: 0.05,
		LatencyRate: 0.1, LatencySpike: 5 * time.Millisecond,
	}
	other := FaultPlan{
		Seed: 43, TransientRate: 0.2, TransientBurst: 3,
		StickyRate: 0.02, CorruptRate: 0.05,
		LatencyRate: 0.1, LatencySpike: 5 * time.Millisecond,
	}
	same := plan // value copy

	differ := 0
	for page := int64(0); page < 2000; page++ {
		for attempt := 0; attempt < 4; attempt++ {
			a := plan.fate(1, page, attempt)
			b := same.fate(1, page, attempt)
			if a != b {
				t.Fatalf("page %d attempt %d: schedule not deterministic: %+v vs %+v", page, attempt, a, b)
			}
			if a != other.fate(1, page, attempt) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatalf("different seeds produced identical schedules over 2000 pages")
	}
}

// TestFaultPlanRates checks that per-page fault incidence is in the right
// ballpark for each knob over a large page population.
func TestFaultPlanRates(t *testing.T) {
	plan := FaultPlan{
		Seed: 7, TransientRate: 0.10, StickyRate: 0.05, CorruptRate: 0.08,
		LatencyRate: 0.20, LatencySpike: time.Millisecond,
	}
	const n = 20000
	var transient, sticky, corrupt, spiked int
	for page := int64(0); page < n; page++ {
		f := plan.fate(3, page, 0)
		if f.Sticky {
			sticky++
			continue
		}
		if f.Transient {
			transient++
		}
		if f.FlipBit >= 0 {
			corrupt++
		}
		if f.Spike > 0 {
			spiked++
		}
	}
	check := func(name string, got int, want float64) {
		t.Helper()
		lo, hi := int(want*n*0.8), int(want*n*1.2)
		if got < lo || got > hi {
			t.Errorf("%s incidence %d outside [%d, %d] for rate %v", name, got, lo, hi, want)
		}
	}
	check("sticky", sticky, 0.05)
	// Sticky pages shadow the other faults, so compare against the surviving
	// population.
	live := float64(n-sticky) / n
	check("transient", transient, 0.10*live)
	check("corrupt", corrupt, 0.08*live)
	check("latency", spiked, 0.20*live)
}

// TestFaultBurstEventuallySucceeds verifies that flaky pages recover: for
// every page, attempts at or past the burst length see no transient fault,
// so a retry loop with enough budget always makes progress.
func TestFaultBurstEventuallySucceeds(t *testing.T) {
	plan := FaultPlan{Seed: 99, TransientRate: 1.0, TransientBurst: 3}
	for page := int64(0); page < 500; page++ {
		sawClear := false
		for attempt := 0; attempt <= plan.TransientBurst; attempt++ {
			f := plan.fate(0, page, attempt)
			if !f.Transient {
				sawClear = true
			} else if sawClear {
				t.Fatalf("page %d: transient fault at attempt %d after clearing", page, attempt)
			}
		}
		if !sawClear {
			t.Fatalf("page %d: still transient after %d attempts (burst must be < budget)", page, plan.TransientBurst+1)
		}
	}
}

// TestChargerBeginRead exercises the attempt cursors: a Sim's shared clock
// (and a fork) sees a flaky page fail for its burst and then stay healthy, with fault
// counters advancing accordingly.
func TestChargerBeginRead(t *testing.T) {
	sim := New(DefaultModel())
	fid := sim.Register()
	plan := FaultPlan{Seed: 1, TransientRate: 1.0, TransientBurst: 1}
	sim.SetFaultPlan(plan)

	// With rate 1.0 and burst 1, every page fails exactly its first attempt.
	for page := int64(0); page < 10; page++ {
		if f := sim.Clock().BeginRead(fid, page); !f.Transient {
			t.Fatalf("page %d: first attempt should be transient", page)
		}
		if f := sim.Clock().BeginRead(fid, page); f.Transient {
			t.Fatalf("page %d: second attempt should succeed", page)
		}
	}
	if got := sim.FaultCounters().Transient; got != 10 {
		t.Fatalf("sim transient counter = %d, want 10", got)
	}

	// A forked Clock has its own cursors: the same pages fail again for it.
	clk := sim.Fork()
	if f := clk.BeginRead(fid, 0); !f.Transient {
		t.Fatalf("clock: first attempt should be transient despite sim history")
	}
	if f := clk.BeginRead(fid, 0); f.Transient {
		t.Fatalf("clock: second attempt should succeed")
	}
	if got := clk.FaultCounters().Transient; got != 1 {
		t.Fatalf("clock transient counter = %d, want 1", got)
	}
	// Clock faults mirror into the parent totals.
	if got := sim.FaultCounters().Transient; got != 11 {
		t.Fatalf("sim transient counter after clock = %d, want 11", got)
	}
}

// TestLatencySpikeChargesClock verifies latency faults advance simulated
// time over and above the access cost itself.
func TestLatencySpikeChargesClock(t *testing.T) {
	sim := New(DefaultModel())
	fid := sim.Register()
	sim.SetFaultPlan(FaultPlan{Seed: 5, LatencyRate: 1.0, LatencySpike: 25 * time.Millisecond})

	before := sim.Now()
	f := sim.Clock().BeginRead(fid, 7)
	if f.Spike != 25*time.Millisecond {
		t.Fatalf("spike = %v, want 25ms", f.Spike)
	}
	if got := sim.Now() - before; got != 25*time.Millisecond {
		t.Fatalf("clock advanced %v, want 25ms", got)
	}
	if got := sim.FaultCounters().LatencySpikes; got != 1 {
		t.Fatalf("latency counter = %d, want 1", got)
	}
}

// TestProfilePlan checks the named profiles resolve and unknown names fail.
func TestProfilePlan(t *testing.T) {
	for _, name := range Profiles() {
		p, err := ProfilePlan(name, 123)
		if err != nil {
			t.Fatalf("ProfilePlan(%q): %v", name, err)
		}
		if p.Seed != 123 {
			t.Fatalf("ProfilePlan(%q) seed = %d, want 123", name, p.Seed)
		}
		if name != "none" && !p.Enabled() {
			t.Fatalf("profile %q should inject faults", name)
		}
	}
	if _, err := ProfilePlan("no-such-profile", 1); err == nil {
		t.Fatalf("unknown profile should error")
	}
	// flaky-disk bursts must fit the default retry budget so the storage
	// layer absorbs every transient (acceptance criterion: zero
	// client-visible errors).
	p, _ := ProfilePlan("flaky-disk", 1)
	if p.TransientBurst >= p.Attempts() {
		t.Fatalf("flaky-disk burst %d must be < attempt budget %d", p.TransientBurst, p.Attempts())
	}
	// flaky-deep bursts must exceed the budget so typed transients escape to
	// the serving layer.
	p, _ = ProfilePlan("flaky-deep", 1)
	if p.TransientBurst < p.Attempts() {
		t.Fatalf("flaky-deep burst %d must be >= attempt budget %d", p.TransientBurst, p.Attempts())
	}
}

// TestSetFaultPlanClear verifies a zero plan disables injection.
func TestSetFaultPlanClear(t *testing.T) {
	sim := New(DefaultModel())
	fid := sim.Register()
	sim.SetFaultPlan(FaultPlan{Seed: 2, TransientRate: 1.0})
	if f := sim.Clock().BeginRead(fid, 0); !f.Transient {
		t.Fatalf("expected transient fault with plan installed")
	}
	sim.SetFaultPlan(FaultPlan{})
	if f := sim.Clock().BeginRead(fid, 1); f.Transient || f.Sticky || f.FlipBit >= 0 || f.Spike != 0 {
		t.Fatalf("expected no fault after clearing plan, got %+v", f)
	}
}

// TestQuietPagesNeverFault: under every profile a page Quiet calls quiet
// meets no fault on any attempt, and every other page does on its first.
func TestQuietPagesNeverFault(t *testing.T) {
	for _, name := range Profiles() {
		p, err := ProfilePlan(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		quiet := 0
		for page := int64(0); page < 2000; page++ {
			if !p.Quiet(3, page) {
				if p.fate(3, page, 0) == (Fault{FlipBit: -1}) {
					t.Fatalf("%s page %d: not quiet, yet its first read is clean", name, page)
				}
				continue
			}
			quiet++
			for a := 0; a < 8; a++ {
				if f := p.fate(3, page, a); f != (Fault{FlipBit: -1}) {
					t.Fatalf("%s page %d attempt %d: quiet, yet %+v", name, page, a, f)
				}
			}
		}
		if name != "none" && quiet == 2000 {
			t.Fatalf("%s: every page quiet", name)
		}
	}
}
