package sampleview

import (
	"path/filepath"
	"testing"
)

// crashViewPath creates an on-disk view over n base records with the WAL
// enabled and returns its path plus the open view.
func crashViewPath(t *testing.T, n int) (string, *View, []Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "crash.sv")
	recs := genRecords(n, 11)
	v, err := CreateFromSlice(path, recs, Options{Seed: 5, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	return path, v, recs
}

// seqSet drains a full-box query and returns the served Seqs, failing on
// any duplicate — the exactly-once recovery criterion.
func seqSet(t *testing.T, v *View) map[uint64]Record {
	t.Helper()
	s, err := v.Query(FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	recs, degraded := drainFaulty(t, s)
	if degraded != 0 {
		t.Fatalf("stream degraded %d times on a healthy disk", degraded)
	}
	got := make(map[uint64]Record, len(recs))
	for _, rec := range recs {
		if _, dup := got[rec.Seq]; dup {
			t.Fatalf("seq %d served twice: write applied twice during recovery", rec.Seq)
		}
		got[rec.Seq] = rec
	}
	return got
}

// TestCrashRecoveryAckedWritesSurvive cuts power right after a WAL append
// buffers (before any sync) and verifies recovery serves every committed
// write exactly once while the never-acked straggler is gone.
func TestCrashRecoveryAckedWritesSurvive(t *testing.T) {
	const base = 200
	path, v, _ := crashViewPath(t, base)
	acked := make([]Record, 0, 50)
	g := genRecords(51, 23)
	for i := 0; i < 50; i++ {
		rec := g[i]
		rec.Seq = 1<<40 + uint64(i)
		if err := v.Insert(rec); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, rec)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}

	v.InjectCrash(CrashPlan{Point: CrashPostWALAppend})
	straggler := g[50]
	straggler.Seq = 1<<41 + 1
	if err := v.Insert(straggler); !IsCrash(err) {
		t.Fatalf("insert across the power cut returned %v, want a crash error", err)
	}
	if !v.Crashed() {
		t.Fatal("view does not report the cut")
	}
	if err := v.Close(); err != nil {
		t.Fatalf("close after crash: %v", err)
	}

	re, err := Open(path, Options{Seed: 5, WAL: true})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	if got := re.WriteStats().WALReplayed; got != int64(len(acked)) {
		t.Fatalf("replayed %d operations, want %d", got, len(acked))
	}
	got := seqSet(t, re)
	if len(got) != base+len(acked) {
		t.Fatalf("recovered view serves %d records, want %d", len(got), base+len(acked))
	}
	for _, rec := range acked {
		r, ok := got[rec.Seq]
		if !ok {
			t.Fatalf("acked seq %d lost across the crash", rec.Seq)
		}
		if r != rec {
			t.Fatalf("acked seq %d came back as %+v, want %+v", rec.Seq, r, rec)
		}
	}
	if _, ok := got[straggler.Seq]; ok {
		t.Fatal("never-acked write surfaced after recovery")
	}
}

// TestCrashRecoveryDoesNotDoubleApply flushes part of the ingest to a
// durable level before the cut: recovery must replay only the suffix past
// the store's AppliedLSN watermark, never re-applying flushed writes, and
// deletes must stay deleted.
func TestCrashRecoveryDoesNotDoubleApply(t *testing.T) {
	const base = 200
	path, v, _ := crashViewPath(t, base)
	g := genRecords(60, 31)
	for i := 0; i < 30; i++ {
		g[i].Seq = 1<<40 + uint64(i)
		if err := v.Insert(g[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil { // 30 inserts now durable in L0, WAL truncated
		t.Fatal(err)
	}
	for i := 30; i < 60; i++ {
		g[i].Seq = 1<<40 + uint64(i)
		if err := v.Insert(g[i]); err != nil {
			t.Fatal(err)
		}
	}
	victim := g[5] // lives in the durable level; delete it post-flush
	if err := v.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}

	v.InjectCrash(CrashPlan{Point: CrashPostWALAppend})
	extra := Record{Key: 1, Amount: 1, Seq: 1<<41 + 7}
	if err := v.Insert(extra); !IsCrash(err) {
		t.Fatalf("insert across the power cut returned %v, want a crash error", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, Options{Seed: 5, WAL: true})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	// 30 post-flush inserts + 1 delete replay; the 30 flushed inserts sit
	// below the AppliedLSN watermark and must be skipped.
	if got := re.WriteStats().WALReplayed; got != 31 {
		t.Fatalf("replayed %d operations, want 31", got)
	}
	if err := re.part.Verify(); err != nil {
		t.Fatalf("the recovered ladder fails its fsck: %v", err)
	}
	got := seqSet(t, re) // seqSet fails the test on any double-apply
	want := base + 60 - 1
	if len(got) != want {
		t.Fatalf("recovered view serves %d records, want %d", len(got), want)
	}
	if _, ok := got[victim.Seq]; ok {
		t.Fatal("deleted record resurrected by recovery")
	}
	for i := 0; i < 60; i++ {
		if g[i].Seq == victim.Seq {
			continue
		}
		if _, ok := got[g[i].Seq]; !ok {
			t.Fatalf("acked seq %d lost across the crash", g[i].Seq)
		}
	}
}

// TestRecoveredViewKeepsWriting verifies the post-recovery log hands out
// fresh LSNs above the durable watermark: new writes committed after a
// recovery survive a second crash-recovery cycle.
func TestRecoveredViewKeepsWriting(t *testing.T) {
	const base = 100
	path, v, _ := crashViewPath(t, base)
	first := Record{Key: 3, Amount: 9, Seq: 1 << 40}
	if err := v.Insert(first); err != nil {
		t.Fatal(err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil { // durable level, WAL truncated to empty
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, Options{Seed: 5, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	second := Record{Key: 4, Amount: 16, Seq: 1<<40 + 1}
	if err := re.Insert(second); err != nil {
		t.Fatal(err)
	}
	if err := re.Commit(); err != nil {
		t.Fatal(err)
	}
	re.InjectCrash(CrashPlan{Point: CrashPostWALAppend})
	if err := re.Insert(Record{Key: 5, Amount: 25, Seq: 1<<40 + 2}); !IsCrash(err) {
		t.Fatalf("insert across the power cut returned %v, want a crash error", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	fin, err := Open(path, Options{Seed: 5, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fin.Close()
	got := seqSet(t, fin)
	if len(got) != base+2 {
		t.Fatalf("final view serves %d records, want %d", len(got), base+2)
	}
	for _, rec := range []Record{first, second} {
		if _, ok := got[rec.Seq]; !ok {
			t.Fatalf("seq %d lost; committed writes must survive every cycle", rec.Seq)
		}
	}
}
