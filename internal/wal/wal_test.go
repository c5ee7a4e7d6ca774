package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/record"
)

func testRec(seq uint64) record.Record {
	return record.Record{Key: int64(seq % 31), Amount: int64(seq * 7), Seq: seq}
}

func testSim() *iosim.Sim { return iosim.New(iosim.DefaultModel()) }

func prefix(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "view.sv")
}

func TestOpenNeedsSim(t *testing.T) {
	if _, _, err := Open(prefix(t), Options{}); err == nil {
		t.Fatal("a log opened without a simulated disk")
	}
}

func TestAppendCommitReplay(t *testing.T) {
	p := prefix(t)
	l, ops, err := Open(p, Options{Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("fresh log replayed %d ops", len(ops))
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if _, err := l.AppendInsert(testRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendDelete(testRec(3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, ops, err := Open(p, Options{Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(ops) != 11 {
		t.Fatalf("replayed %d ops, want 11", len(ops))
	}
	for i, op := range ops {
		if op.LSN != uint64(i+1) {
			t.Fatalf("op %d has LSN %d, want %d", i, op.LSN, i+1)
		}
	}
	for i := 0; i < 10; i++ {
		if ops[i].Delete {
			t.Fatalf("op %d unexpectedly a delete", i)
		}
		if want := testRec(uint64(i + 1)); ops[i].Rec != want {
			t.Fatalf("op %d replayed record %+v, want %+v", i, ops[i].Rec, want)
		}
	}
	last := ops[10]
	if !last.Delete || last.Rec != testRec(3) {
		t.Fatalf("final op = %+v, want delete of seq 3 with full coordinates", last)
	}
	if got := l2.Stats().Replayed; got != 11 {
		t.Fatalf("Stats.Replayed = %d, want 11", got)
	}
	// New appends continue the LSN sequence.
	lsn, err := l2.AppendInsert(testRec(99))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 12 {
		t.Fatalf("post-replay LSN = %d, want 12", lsn)
	}
}

func TestUncommittedAppendsAreVolatile(t *testing.T) {
	p := prefix(t)
	l, _, err := Open(p, Options{Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendInsert(testRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
	// Buffered but never committed: simulate the process dying by reopening
	// without Close (Close would flush).
	if _, err := l.AppendInsert(testRec(2)); err != nil {
		t.Fatal(err)
	}
	l2, ops, err := Open(p, Options{Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(ops) != 1 || ops[0].Rec.Seq != 1 {
		t.Fatalf("replayed %v, want only the committed insert of seq 1", ops)
	}
}

func TestTornTailTruncated(t *testing.T) {
	p := prefix(t)
	l, _, err := Open(p, Options{Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := l.AppendInsert(testRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A power cut mid-write leaves a partial frame at the tail.
	seg := p + ".wal000000"
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x6d, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(seg)

	l2, ops, err := Open(p, Options{Sim: testSim()})
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer l2.Close()
	if len(ops) != 3 {
		t.Fatalf("replayed %d ops, want 3", len(ops))
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
}

func TestEmptyTailSegment(t *testing.T) {
	p := prefix(t)
	// An empty segment file (crash immediately after rotation) replays to
	// nothing and stays usable.
	if err := os.WriteFile(p+".wal000000", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, ops, err := Open(p, Options{Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(ops) != 0 {
		t.Fatalf("empty segment replayed %d ops", len(ops))
	}
	if _, err := l.AppendInsert(testRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
}

func TestMidLogCorruptionFailsOpen(t *testing.T) {
	p := prefix(t)
	// Tiny segments force a rotation so damage lands in a non-tail segment.
	l, _, err := Open(p, Options{Sim: testSim(), SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		if _, err := l.AppendInsert(testRec(seq)); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(l.LastLSN()); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 2 {
		t.Fatalf("expected rotation, have %d segments", l.Stats().Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg0 := p + ".wal000000"
	data, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(p, Options{Sim: testSim(), SegmentBytes: 128}); err == nil {
		t.Fatal("corruption in a sealed segment must fail open")
	}
}

func TestRotationAndTruncateThrough(t *testing.T) {
	p := prefix(t)
	l, _, err := Open(p, Options{Sim: testSim(), SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 20; seq++ {
		if _, err := l.AppendInsert(testRec(seq)); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(l.LastLSN()); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected several segments, have %d", st.Segments)
	}
	// Everything flushed durable: the whole log is redundant.
	if err := l.TruncateThrough(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("after full truncation Segments = %d, want 1 (the fresh live segment)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, ops, err := Open(p, Options{Sim: testSim(), SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(ops) != 0 {
		t.Fatalf("truncated log replayed %d ops", len(ops))
	}
	// The attach path re-raises the sequence above the store's durable
	// watermark so truncated LSNs are never handed out again.
	l2.SetFloor(20)
	lsn, err := l2.AppendInsert(testRec(100))
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= 20 {
		t.Fatalf("post-truncation LSN %d reuses a truncated LSN", lsn)
	}
	if err := l2.Commit(lsn); err != nil {
		t.Fatal(err)
	}
}

func TestPartialTruncateKeepsUnappliedSegments(t *testing.T) {
	p := prefix(t)
	l, _, err := Open(p, Options{Sim: testSim(), SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 20; seq++ {
		if _, err := l.AppendInsert(testRec(seq)); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(l.LastLSN()); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats().Segments
	if err := l.TruncateThrough(5); err != nil {
		t.Fatal(err)
	}
	after := l.Stats().Segments
	if after >= before {
		t.Fatalf("truncation removed nothing: %d -> %d segments", before, after)
	}
	// Frames past LSN 5 must still replay.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, ops, err := Open(p, Options{Sim: testSim(), SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seen := map[uint64]bool{}
	for _, op := range ops {
		seen[op.LSN] = true
	}
	for lsn := uint64(6); lsn <= 20; lsn++ {
		// Segment granularity may keep some LSNs <= 5 around; every LSN > 5
		// must survive.
		if !seen[lsn] {
			t.Fatalf("LSN %d lost by partial truncation", lsn)
		}
	}
}

func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	p := prefix(t)
	l, _, err := Open(p, Options{Sim: testSim(), GroupWindow: 3 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, per = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.AppendInsert(testRec(uint64(w*per + i + 1)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Commit(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*per {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*per)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
}

// TestSequentialCommitsSyncOnceEach pins the sync-every-write baseline
// that group commit is measured against: a lone writer that commits each
// append before the next pays one fsync per commit.
func TestSequentialCommitsSyncOnceEach(t *testing.T) {
	p := prefix(t)
	l, _, err := Open(p, Options{Sim: testSim()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for seq := uint64(1); seq <= 5; seq++ {
		lsn, err := l.AppendInsert(testRec(seq))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != 5 {
		t.Fatalf("5 sequential commits issued %d fsyncs", st.Fsyncs)
	}
}

func TestCrashPostWALAppend(t *testing.T) {
	p := prefix(t)
	sim := iosim.New(iosim.DefaultModel())
	l, _, err := Open(p, Options{Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetCrashPlan(iosim.CrashPlan{Point: iosim.CrashPostWALAppend})
	if _, err := l.AppendInsert(testRec(1)); !iosim.IsCrash(err) {
		t.Fatalf("append at the crash point returned %v, want crash", err)
	}
	// The log is dead: nothing acks, nothing flushes.
	if err := l.Commit(1); !iosim.IsCrash(err) {
		t.Fatalf("post-cut Commit returned %v, want crash", err)
	}
	if _, err := l.AppendInsert(testRec(2)); !iosim.IsCrash(err) {
		t.Fatalf("post-cut append returned %v, want crash", err)
	}
	l.Close()
	// Recovery: the unacked frame never reached disk.
	l2, ops, err := Open(p, Options{Sim: iosim.New(iosim.DefaultModel())})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(ops) != 0 {
		t.Fatalf("crash before any sync replayed %d ops, want 0", len(ops))
	}
}

func TestCrashMidPageWriteLeavesTornTail(t *testing.T) {
	p := prefix(t)
	sim := iosim.New(iosim.DefaultModel())
	l, _, err := Open(p, Options{Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if _, err := l.AppendInsert(testRec(seq)); err != nil {
			t.Fatal(err)
		}
	}
	sim.SetCrashPlan(iosim.CrashPlan{Point: iosim.CrashMidPageWrite})
	if err := l.Commit(l.LastLSN()); !iosim.IsCrash(err) {
		t.Fatalf("Commit across the crash point returned %v, want crash", err)
	}
	l.Close()
	// The half-written buffer is a torn tail: recovery tolerates it and
	// replays only what was fully framed before the cut (nothing was synced,
	// so an empty replay is also legal — what matters is a clean open and a
	// prefix).
	l2, ops, err := Open(p, Options{Sim: iosim.New(iosim.DefaultModel())})
	if err != nil {
		t.Fatalf("open after mid-write crash: %v", err)
	}
	defer l2.Close()
	for i, op := range ops {
		if op.LSN != uint64(i+1) {
			t.Fatalf("replay is not an LSN prefix: op %d has LSN %d", i, op.LSN)
		}
	}
	if len(ops) > 4 {
		t.Fatalf("replayed %d ops, more than were appended", len(ops))
	}
}
