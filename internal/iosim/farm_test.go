package iosim

import (
	"testing"
	"time"
)

func TestFarmNowIsMaxAndCountersSum(t *testing.T) {
	f := NewFarm(DefaultModel(), 3)
	a, b := f.Disk(0).Register(), f.Disk(1).Register()
	f.Disk(0).Clock().ReadPage(a, 0) // random
	f.Disk(0).Clock().ReadPage(a, 1) // sequential
	f.Disk(1).Clock().ReadPage(b, 7) // random
	m := f.Model()
	if got, want := f.Now(), m.RandomRead+m.SequentialRead; got != want {
		t.Fatalf("farm Now = %v, want max disk time %v", got, want)
	}
	c := f.Counters()
	if c.RandomReads != 2 || c.SequentialReads != 1 {
		t.Fatalf("summed counters = %+v, want 2 random + 1 sequential", c)
	}
}

func TestFarmIndependentHeads(t *testing.T) {
	f := NewFarm(DefaultModel(), 2)
	a, b := f.Disk(0).Register(), f.Disk(1).Register()
	// Alternating across disks must stay sequential on each: separate
	// spindles do not share a head.
	f.Disk(0).Clock().ReadPage(a, 0)
	f.Disk(1).Clock().ReadPage(b, 0)
	f.Disk(0).Clock().ReadPage(a, 1)
	f.Disk(1).Clock().ReadPage(b, 1)
	for i := 0; i < 2; i++ {
		c := f.Disk(i).Counters()
		if c.RandomReads != 1 || c.SequentialReads != 1 {
			t.Fatalf("disk %d counters = %+v, want 1 random + 1 sequential", i, c)
		}
	}
}

func TestFarmFaultPlanSeedsDiffer(t *testing.T) {
	f := NewFarm(DefaultModel(), 4)
	f.SetFaultPlan(FaultPlan{Seed: 42, TransientRate: 0.5})
	seen := make(map[uint64]bool)
	for i := 0; i < f.K(); i++ {
		s := f.Disk(i).FaultPlan().Seed
		if seen[s] {
			t.Fatalf("disk %d reuses fault seed %d", i, s)
		}
		seen[s] = true
	}
}

func TestFarmScanCost(t *testing.T) {
	f := NewFarm(DefaultModel(), 2)
	if got, want := f.ScanCost(10), New(DefaultModel()).ScanCost(10); got != want {
		t.Fatalf("farm ScanCost = %v, want single-disk %v", got, want)
	}
	var zero time.Duration
	if f.Now() != zero {
		t.Fatalf("fresh farm Now = %v, want 0", f.Now())
	}
}
