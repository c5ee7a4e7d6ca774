package iosim

import (
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
