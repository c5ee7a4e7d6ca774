package iosim

import (
	"errors"
	"fmt"
)

// This file is the crash-injection layer of the simulated disk. A CrashPlan
// schedules one deterministic "power cut" at a named crash point on the
// write path: the Nth time the instrumented site is reached, the Sim flips
// into the crashed state and every subsequent crash-point check (and Sync)
// fails with the same *CrashError. The write path is expected to abort and
// propagate the error; whatever bytes physically reached the files before
// the cut — including a torn page at CrashMidPageWrite — are exactly what
// recovery sees on the next open. Buffered-but-unsynced writes are the
// caller's loss window: layers that buffer (the WAL's group-commit buffer)
// simply never flush after the cut, which models a power cut discarding
// everything that had not reached a durable Sync barrier.
//
// Like FaultPlan, the schedule is deterministic: it depends only on the
// plan and the sequence of crash-point encounters, never on wall-clock time
// or goroutine scheduling of unrelated streams.

// CrashPoint names an instrumented site on the write path.
type CrashPoint uint8

const (
	// CrashNone disables crash injection.
	CrashNone CrashPoint = iota
	// CrashPostWALAppend fires after a WAL record is appended to the
	// group-commit buffer but before any sync: the write is lost and must
	// never have been acked.
	CrashPostWALAppend
	// CrashMidPageWrite fires halfway through flushing buffered WAL bytes
	// to the segment file, leaving a torn (partial, checksum-failing) tail
	// that replay must tolerate.
	CrashMidPageWrite
	// CrashPreManifestRename fires after the temp manifest is written but
	// before the atomic rename installs it: the old manifest stays live and
	// the freshly written level file becomes an orphan.
	CrashPreManifestRename
	// CrashMidCompaction fires after a compaction writes its merged level
	// but before the manifest install: inputs stay live, output is orphaned.
	CrashMidCompaction

	numCrashPoints
)

var crashPointNames = [numCrashPoints]string{
	CrashNone:              "none",
	CrashPostWALAppend:     "post-wal-append",
	CrashMidPageWrite:      "mid-page-write",
	CrashPreManifestRename: "pre-manifest-rename",
	CrashMidCompaction:     "mid-compaction",
}

// String returns the point's stable name (used in reports).
func (p CrashPoint) String() string {
	if int(p) < len(crashPointNames) {
		return crashPointNames[p]
	}
	return fmt.Sprintf("crashpoint(%d)", int(p))
}

// CrashPoints returns every real crash point, in write-path order.
func CrashPoints() []CrashPoint {
	return []CrashPoint{CrashPostWALAppend, CrashMidPageWrite, CrashPreManifestRename, CrashMidCompaction}
}

// CrashPlan schedules one deterministic power cut. The zero value injects
// nothing.
type CrashPlan struct {
	// Point is the instrumented site at which to cut power.
	Point CrashPoint
	// Hit is the 1-based encounter of Point that triggers the cut; 0 means
	// the first encounter.
	Hit int
}

// Enabled reports whether the plan injects a crash.
func (p CrashPlan) Enabled() bool { return p.Point != CrashNone }

// hit returns the 1-based trigger encounter.
func (p CrashPlan) hit() int64 {
	if p.Hit > 0 {
		return int64(p.Hit)
	}
	return 1
}

// CrashError is the power cut: every crash-point check and Sync after the
// trigger fails with it. It carries the point and encounter that fired so
// harnesses can label the drill.
type CrashError struct {
	Point CrashPoint
	Hit   int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("iosim: simulated power cut at %s (hit %d)", e.Point, e.Hit)
}

// IsCrash reports whether err is (or wraps) a simulated power cut.
func IsCrash(err error) bool {
	var ce *CrashError
	return errors.As(err, &ce)
}

// SetCrashPlan installs (or, with a zero plan, clears) the crash schedule
// and resets the crashed state and encounter counters, so a reopened Sim
// starts alive.
func (s *Sim) SetCrashPlan(p CrashPlan) {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	s.crashPlan = p
	s.crashErr = nil
	for i := range s.crashHits {
		s.crashHits[i] = 0
	}
}

// Crashed reports whether the simulated power cut has fired.
func (s *Sim) Crashed() bool {
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	return s.crashErr != nil
}

// AtCrashPoint is called by the write path at each instrumented site. It
// counts the encounter and returns nil while power is on; once the plan's
// trigger encounter is reached (or after any prior cut) it returns the
// *CrashError, and the caller must abort without performing the guarded
// write step.
func (s *Sim) AtCrashPoint(p CrashPoint) error {
	if p == CrashNone || p >= numCrashPoints {
		return nil
	}
	s.crashMu.Lock()
	defer s.crashMu.Unlock()
	if s.crashErr != nil {
		return s.crashErr
	}
	if !s.crashPlan.Enabled() {
		return nil
	}
	if s.crashPlan.Point == p {
		s.crashHits[p]++
		if s.crashHits[p] >= s.crashPlan.hit() {
			s.crashErr = &CrashError{Point: p, Hit: int(s.crashHits[p])}
			return s.crashErr
		}
	}
	return nil
}

// Sync charges one durability barrier (fsync) to the clock and counts it.
// The barrier costs one random write of service time: a flush forces the
// device to drain its cache and reposition, which is the same order of work
// as a random page write. After a power cut, Sync fails with the crash
// error and charges nothing — the device is gone.
func (s *Sim) Sync() error {
	s.crashMu.Lock()
	err := s.crashErr
	s.crashMu.Unlock()
	if err != nil {
		return err
	}
	s.syncs.Add(1)
	s.now.Add(int64(s.model.RandomWrite))
	return nil
}
