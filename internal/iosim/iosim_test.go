package iosim

import (
	"fmt"
	"math/rand/v2"
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
	s.ReadPage(f, 0) // random: first access
	s.ReadPage(f, 1) // sequential
	s.ReadPage(f, 2) // sequential
	s.ReadPage(f, 9) // random: skip
	s.ReadPage(f, 3) // random: backwards
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
	s.ReadPage(a, 0)
	s.ReadPage(b, 0) // head moved to b: random
	s.ReadPage(a, 1) // head back to a: random even though page follows
	c := s.Counters()
	if c.RandomReads != 3 || c.SequentialReads != 0 {
		t.Fatalf("counters = %+v, want all random", c)
	}
}

func TestWriteCosts(t *testing.T) {
	s := New(testModel())
	f := s.Register()
	s.WritePage(f, 0)
	s.WritePage(f, 1)
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
	s.WritePage(f, 0)
	s.ReadPage(f, 1) // head is after page 0, so this is sequential
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
		s.ReadPage(f, i)
	}
	if got := s.Now() - before; got != want {
		t.Fatalf("actual scan cost %v, want %v", got, want)
	}
}

// TestReadPagesIsReadPageRun: charging a run of pages at once leaves the
// shared disk and a forked clock where as many ReadPage calls would, and
// the read after it sequential.
func TestReadPagesIsReadPageRun(t *testing.T) {
	one, run := New(testModel()), New(testModel())
	f1, f2 := one.Register(), run.Register()
	c1, c2 := one.Fork(), run.Fork()
	for _, r := range [][2]int64{{5, 3}, {8, 4}, {2, 1}, {9, 0}, {30, 7}} {
		for i := r[0]; i < r[0]+r[1]; i++ {
			one.ReadPage(f1, i)
			c1.ReadPage(f1, i)
		}
		run.ReadPages(f2, r[0], r[1])
		c2.ReadPages(f2, r[0], r[1])
	}
	one.ReadPage(f1, 37)
	c1.ReadPage(f1, 37)
	run.ReadPage(f2, 37)
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

// TestSimChargesAsItsClock: a seeded program charged to a Sim directly and
// to the lone fork of a second Sim with the same model and fault plan sees
// the same faults and the same clock after every op, and the same counters
// at the end: the Sim's direct charges follow the Clock's cost rule and
// attempt cursors exactly.
func TestSimChargesAsItsClock(t *testing.T) {
	plan := FaultPlan{
		Seed: 11, TransientRate: 0.2, TransientBurst: 2,
		LatencyRate: 0.1, LatencySpike: 3 * time.Millisecond,
	}
	direct, other := New(testModel()), New(testModel())
	direct.SetFaultPlan(plan)
	other.SetFaultPlan(plan)
	var files []FileID
	for i := 0; i < 3; i++ {
		files = append(files, direct.Register())
		other.Register()
	}
	clk := other.Fork()
	rng := rand.New(rand.NewPCG(50, 1))
	next := make(map[FileID]int64)
	for op := 0; op < 6000; op++ {
		f := files[rng.IntN(len(files))]
		page := int64(rng.IntN(64))
		if rng.IntN(2) == 0 { // continue where this file's head would be
			page = next[f]
		}
		next[f] = page + 1
		k := rng.IntN(5)
		switch k {
		case 0:
			direct.ReadPage(f, page)
			clk.ReadPage(f, page)
		case 1:
			n := int64(rng.IntN(5))
			direct.ReadPages(f, page, n)
			clk.ReadPages(f, page, n)
			if n > 0 {
				next[f] = page + n
			}
		case 2:
			direct.WritePage(f, page)
			clk.WritePage(f, page)
		case 3:
			if a, b := direct.BeginRead(f, page), clk.BeginRead(f, page); a != b {
				t.Fatalf("op %d: BeginRead(%d, %d) = %+v on the Sim, %+v on the Clock", op, f, page, a, b)
			}
		case 4:
			d := time.Duration(rng.IntN(1000)) * time.Microsecond
			direct.Advance(d)
			clk.Advance(d)
		}
		if direct.Now() != clk.Now() {
			t.Fatalf("op %d (kind %d): Sim at %v, Clock at %v", op, k, direct.Now(), clk.Now())
		}
	}
	if a, b := direct.Counters(), clk.Counters(); a != b {
		t.Fatalf("counters: Sim %+v, Clock %+v", a, b)
	}
	if a, b := direct.FaultCounters(), clk.FaultCounters(); a != b {
		t.Fatalf("fault counters: Sim %+v, Clock %+v", a, b)
	}
	c, fc := direct.Counters(), direct.FaultCounters()
	if c.RandomReads == 0 || c.SequentialReads == 0 || fc.Transient == 0 || fc.LatencySpikes == 0 {
		t.Fatalf("program exercised too little: %+v %+v", c, fc)
	}
	t.Logf("%d random / %d sequential reads, %d random / %d sequential writes, %d transient, %d spikes",
		c.RandomReads, c.SequentialReads, c.RandomWrites, c.SequentialWrites, fc.Transient, fc.LatencySpikes)
}

// TestConcurrentDirectAndForkedCharges: goroutines charging one Sim
// directly, fault attempts included, race forks charging it too. Every
// access lands in the totals, each direct reader meets each flaky page's
// burst exactly once, and each fork reads as it would running alone.
func TestConcurrentDirectAndForkedCharges(t *testing.T) {
	const workers, iters = 4, 500
	plan := FaultPlan{Seed: 3, TransientRate: 1, TransientBurst: 1, LatencyRate: 0.2, LatencySpike: time.Millisecond}
	// program charges ch with iters steps over f, from page base on: two
	// attempts of a flaky page (the first fails), then 5 page accesses.
	program := func(ch Charger, f FileID, base int64) error {
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
		go func(base int64) { defer wg.Done(); errs <- program(sim, f, base) }(int64(g) * 10 * iters)
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
