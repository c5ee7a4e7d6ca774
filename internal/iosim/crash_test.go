package iosim

import (
	"fmt"
	"testing"
)

func TestCrashPlanFiresOnNthHit(t *testing.T) {
	s := New(DefaultModel())
	s.SetCrashPlan(CrashPlan{Point: CrashMidPageWrite, Hit: 3})
	for i := 1; i <= 2; i++ {
		if err := s.AtCrashPoint(CrashMidPageWrite); err != nil {
			t.Fatalf("hit %d fired early: %v", i, err)
		}
		// Other points never count toward the trigger.
		if err := s.AtCrashPoint(CrashPostWALAppend); err != nil {
			t.Fatalf("unrelated point fired: %v", err)
		}
	}
	err := s.AtCrashPoint(CrashMidPageWrite)
	if !IsCrash(err) {
		t.Fatalf("hit 3 did not fire: %v", err)
	}
	if !s.Crashed() {
		t.Fatal("Crashed() false after the cut")
	}
	// Sticky: every point, and Sync, now fails with the same cut.
	if err := s.AtCrashPoint(CrashPreManifestRename); !IsCrash(err) {
		t.Fatalf("post-cut crash point returned %v", err)
	}
	if err := s.Sync(); !IsCrash(err) {
		t.Fatalf("post-cut Sync returned %v", err)
	}
	var ce *CrashError
	if ok := func() bool { e, k := err.(*CrashError); ce = e; return k }(); !ok {
		t.Fatalf("post-cut error is %T, want *CrashError", err)
	}
	if ce.Point != CrashMidPageWrite || ce.Hit != 3 {
		t.Fatalf("crash error carries %v/%d, want mid-page-write/3", ce.Point, ce.Hit)
	}
}

func TestCrashPlanZeroHitMeansFirst(t *testing.T) {
	s := New(DefaultModel())
	s.SetCrashPlan(CrashPlan{Point: CrashPostWALAppend})
	if err := s.AtCrashPoint(CrashPostWALAppend); !IsCrash(err) {
		t.Fatalf("first encounter with Hit=0 did not fire: %v", err)
	}
}

func TestSetCrashPlanResets(t *testing.T) {
	s := New(DefaultModel())
	s.SetCrashPlan(CrashPlan{Point: CrashMidCompaction})
	if err := s.AtCrashPoint(CrashMidCompaction); !IsCrash(err) {
		t.Fatalf("plan did not fire: %v", err)
	}
	s.SetCrashPlan(CrashPlan{})
	if s.Crashed() {
		t.Fatal("clearing the plan left the sim crashed")
	}
	if err := s.AtCrashPoint(CrashMidCompaction); err != nil {
		t.Fatalf("cleared plan still fires: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after reset: %v", err)
	}
}

func TestSyncChargesBarrier(t *testing.T) {
	s := New(DefaultModel())
	before := s.Now()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.syncs.Load() != 1 {
		t.Fatalf("Syncs = %d, want 1", s.syncs.Load())
	}
	if d := s.Now() - before; d != s.Model().RandomWrite {
		t.Fatalf("barrier charged %v, want one random write (%v)", d, s.Model().RandomWrite)
	}
}

func TestCrashErrorMessageNamesPoint(t *testing.T) {
	e := &CrashError{Point: CrashPreManifestRename, Hit: 2}
	want := fmt.Sprintf("iosim: simulated power cut at %s (hit 2)", CrashPreManifestRename)
	if e.Error() != want {
		t.Fatalf("Error() = %q, want %q", e.Error(), want)
	}
}
