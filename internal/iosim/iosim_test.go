package iosim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func testModel() Model {
	return Model{
		RandomRead:      10 * time.Millisecond,
		SequentialRead:  1 * time.Millisecond,
		RandomWrite:     10 * time.Millisecond,
		SequentialWrite: 1 * time.Millisecond,
		PageSize:        4096,
	}
}

func TestSequentialDetection(t *testing.T) {
	s := New(testModel())
	f := s.Register()
	s.Clock().ReadPage(f, 0) // random: first access
	s.Clock().ReadPage(f, 1) // sequential
	s.Clock().ReadPage(f, 2) // sequential
	s.Clock().ReadPage(f, 9) // random: skip
	s.Clock().ReadPage(f, 3) // random: backwards
	c := s.Counters()
	if c.RandomReads != 3 || c.SequentialReads != 2 {
		t.Fatalf("counters = %+v, want 3 random / 2 sequential", c)
	}
	want := 3*10*time.Millisecond + 2*time.Millisecond
	if s.Now() != want {
		t.Fatalf("clock = %v, want %v", s.Now(), want)
	}
}

func TestInterleavedFilesBreakSequentiality(t *testing.T) {
	s := New(testModel())
	a, b := s.Register(), s.Register()
	s.Clock().ReadPage(a, 0)
	s.Clock().ReadPage(b, 0) // head moved to b: random
	s.Clock().ReadPage(a, 1) // head back to a: random even though page follows
	c := s.Counters()
	if c.RandomReads != 3 || c.SequentialReads != 0 {
		t.Fatalf("counters = %+v, want all random", c)
	}
}

func TestWriteCosts(t *testing.T) {
	s := New(testModel())
	f := s.Register()
	s.Clock().WritePage(f, 0)
	s.Clock().WritePage(f, 1)
	c := s.Counters()
	if c.RandomWrites != 1 || c.SequentialWrites != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.Writes() != 2 || c.Reads() != 0 {
		t.Fatalf("totals wrong: %+v", c)
	}
}

func TestReadAfterWriteIsSequential(t *testing.T) {
	s := New(testModel())
	f := s.Register()
	s.Clock().WritePage(f, 0)
	s.Clock().ReadPage(f, 1) // head is after page 0, so this is sequential
	if c := s.Counters(); c.SequentialReads != 1 {
		t.Fatalf("read after write not sequential: %+v", c)
	}
}

func TestScanCost(t *testing.T) {
	s := New(testModel())
	if s.ScanCost(0) != 0 {
		t.Fatal("empty scan should cost nothing")
	}
	want := 10*time.Millisecond + 99*time.Millisecond
	if got := s.ScanCost(100); got != want {
		t.Fatalf("ScanCost(100) = %v, want %v", got, want)
	}
	// A real scan through ReadPage should cost exactly ScanCost.
	f := s.Register()
	before := s.Now()
	for i := int64(0); i < 100; i++ {
		s.Clock().ReadPage(f, i)
	}
	if got := s.Now() - before; got != want {
		t.Fatalf("actual scan cost %v, want %v", got, want)
	}
}

// TestReadPagesIsReadPageRun: charging a run of pages at once leaves the
// shared clock and a fork where as many ReadPage calls would, and
// the read after it sequential.
func TestReadPagesIsReadPageRun(t *testing.T) {
	one, run := New(testModel()), New(testModel())
	f1, f2 := one.Register(), run.Register()
	c1, c2 := one.Fork(), run.Fork()
	for _, r := range [][2]int64{{5, 3}, {8, 4}, {2, 1}, {9, 0}, {30, 7}} {
		for i := r[0]; i < r[0]+r[1]; i++ {
			one.Clock().ReadPage(f1, i)
			c1.ReadPage(f1, i)
		}
		run.Clock().ReadPages(f2, r[0], r[1])
		c2.ReadPages(f2, r[0], r[1])
	}
	one.Clock().ReadPage(f1, 37)
	c1.ReadPage(f1, 37)
	run.Clock().ReadPage(f2, 37)
	c2.ReadPage(f2, 37)
	if one.Now() != run.Now() || one.Counters() != run.Counters() || c1.Now() != c2.Now() || c1.Counters() != c2.Counters() {
		t.Fatalf("page by page %v %+v (clock %v %+v), by runs %v %+v (clock %v %+v)",
			one.Now(), one.Counters(), c1.Now(), c1.Counters(), run.Now(), run.Counters(), c2.Now(), c2.Counters())
	}
	if c := c2.Counters(); c.RandomReads != 3 || c.SequentialReads != 13 {
		t.Fatalf("runs charged %+v, want 3 random reads and 13 sequential", c)
	}
}

func TestAdvance(t *testing.T) {
	s := New(testModel())
	s.Advance(5 * time.Second)
	s.Advance(-time.Second) // ignored
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestInvalidModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid model should panic")
		}
	}()
	New(Model{})
}

func TestDefaultModelRatio(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(m.RandomRead) / float64(m.SequentialRead)
	// The paper's testbed had a random:sequential page cost ratio of ~8:1.
	if ratio < 5 || ratio > 15 {
		t.Fatalf("default model ratio %.1f outside plausible band", ratio)
	}
}

// TestConcurrentDirectAndForkedCharges: goroutines charging one Sim's
// shared clock, fault attempts included, race forks charging the Sim too.
// Every access lands in the totals, each reader of the shared clock meets
// each flaky page's burst exactly once, and each fork reads as it would
// running alone.
func TestConcurrentDirectAndForkedCharges(t *testing.T) {
	const workers, iters = 4, 500
	plan := FaultPlan{Seed: 3, TransientRate: 1, TransientBurst: 1, LatencyRate: 0.2, LatencySpike: time.Millisecond}
	// program charges ch with iters steps over f, from page base on: two
	// attempts of a flaky page (the first fails), then 5 page accesses.
	program := func(ch *Clock, f FileID, base int64) error {
		for i := int64(0); i < iters; i++ {
			page := base + i
			if !ch.BeginRead(f, page).Transient || ch.BeginRead(f, page).Transient {
				return fmt.Errorf("page %d: want one failed attempt, then a clean one", page)
			}
			ch.ReadPage(f, page)
			ch.WritePage(f, page+1)
			ch.ReadPages(f, page+2, 3)
			ch.Advance(time.Microsecond)
		}
		return nil
	}
	solo := New(testModel())
	solo.SetFaultPlan(plan)
	sf := solo.Register()
	alone := solo.Fork()
	if err := program(alone, sf, 0); err != nil {
		t.Fatal(err)
	}

	sim := New(testModel())
	sim.SetFaultPlan(plan)
	f := sim.Register()
	forks := make([]*Clock, workers)
	errs := make(chan error, 2*workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		forks[g] = sim.Fork()
		wg.Add(2)
		go func(base int64) { defer wg.Done(); errs <- program(sim.Clock(), f, base) }(int64(g) * 10 * iters)
		go func(c *Clock) { defer wg.Done(); errs <- program(c, f, 0) }(forks[g])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c, fc := sim.Counters(), sim.FaultCounters()
	if got, want := c.Reads()+c.Writes(), int64(2*workers*iters*5); got != want {
		t.Fatalf("%d accesses charged, want %d", got, want)
	}
	if got, want := fc.Transient, int64(2*workers*iters); got != want {
		t.Fatalf("%d transient faults, want %d", got, want)
	}
	for g, k := range forks {
		if k.Now() != alone.Now() || k.Counters() != alone.Counters() || k.FaultCounters() != alone.FaultCounters() {
			t.Fatalf("fork %d read %v %+v %+v, alone %v %+v %+v", g,
				k.Now(), k.Counters(), k.FaultCounters(), alone.Now(), alone.Counters(), alone.FaultCounters())
		}
	}
}
