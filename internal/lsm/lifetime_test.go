package lsm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// diskStoreView is buildView over 600 base records with its delta store on
// the OS, beside a path in a fresh directory, which it returns.
func diskStoreView(t *testing.T, sim *iosim.Sim) (*View, string) {
	t.Helper()
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := workload.GenerateRelation(sim, 600, workload.Uniform, 90)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.Create(pagefile.NewMem(sim), rel, core.Params{Height: 4, Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(sim, filepath.Join(dir, "sale.view"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return NewView(tree, store), dir
}

// handlesUnder returns this process's open descriptors on files under dir,
// as /proc/self/fd resolves them (an unlinked file ends in " (deleted)"),
// and how many of them are unlinked. It skips the test where /proc is absent.
func handlesUnder(t *testing.T, dir string) (open []string, unlinked int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd here; descriptors cannot be counted")
	}
	for _, e := range ents {
		if p, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(p, dir) {
			open = append(open, p)
			if strings.HasSuffix(p, " (deleted)") {
				unlinked++
			}
		}
	}
	return open, unlinked
}

// checkHandles fails unless exactly want descriptors are open under dir, of
// which wantUnlinked are superseded levels whose files are already unlinked.
func checkHandles(t *testing.T, dir, step string, want, wantUnlinked int) {
	t.Helper()
	if open, unlinked := handlesUnder(t, dir); len(open) != want || unlinked != wantUnlinked {
		t.Fatalf("%s: %d delta descriptors open (%d unlinked), want %d (%d): %v", step, len(open), unlinked, want, wantUnlinked, open)
	}
}

// TestSupersededLevelClosesWithoutReaders: with no stream open, a merge
// closes both of its inputs, so after any number of flush + compaction
// cycles the store holds one descriptor per listed level and none on an
// unlinked file. (A ladder that kept superseded levels until Close held two
// more per merge.)
func TestSupersededLevelClosesWithoutReaders(t *testing.T) {
	sim := testSim()
	v, dir := diskStoreView(t, sim)
	for i := 0; i < 40; i++ {
		ingest(t, v, 40, uint64(100+i), uint64(i+1)<<32)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := v.CompactOnce(v.Store().Levels() > 4); err != nil {
			t.Fatal(err)
		}
		checkHandles(t, dir, "after a flush and a compaction", v.Store().Levels(), 0)
	}
	if v.WriteStats().Compactions < 20 {
		t.Fatalf("only %d merges in 40 cycles; the test exercised too little", v.WriteStats().Compactions)
	}
}

// TestSupersededLevelOutlivesItsStream: a stream opened before a forced
// compaction drains the exact union from the merge's inputs, which stay open
// (and already unlinked) until the stream closes, and no longer.
func TestSupersededLevelOutlivesItsStream(t *testing.T) {
	sim := testSim()
	v, dir := diskStoreView(t, sim)
	want := 600
	for i := 0; i < 4; i++ {
		ingest(t, v, 100+20*i, uint64(41+i), uint64(i+1)<<32)
		want += 100 + 20*i
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	s := mustQuery(t, v, record.FullBox(1), 45)
	prefix := make(map[uint64]bool)
	for len(prefix) < 50 {
		rec, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		prefix[rec.Seq] = true
	}
	if ran, err := v.CompactOnce(true); err != nil || !ran {
		t.Fatalf("forced compaction: ran=%v err=%v", ran, err)
	}
	levels := v.Store().Levels()
	checkHandles(t, dir, "stream open across the merge", levels+2, 2)

	got := drain(t, s)
	for seq := range got {
		if prefix[seq] {
			t.Fatalf("seq %d served before and after the merge", seq)
		}
	}
	if len(got)+len(prefix) != want {
		t.Fatalf("stream across the merge returned %d+%d records, want %d", len(prefix), len(got), want)
	}
	checkHandles(t, dir, "stream drained, not closed", levels+2, 2)
	s.Close()
	checkHandles(t, dir, "stream closed", levels, 0)
	s.Close() // idempotent: the ladder's own references survive it
	checkHandles(t, dir, "stream closed twice", levels, 0)
	if got := drain(t, mustQuery(t, v, record.FullBox(1), 46)); len(got) != want {
		t.Fatalf("fresh stream after the merge returned %d records, want %d", len(got), want)
	}
}

// TestSupersededLevelStoreCloseUnderStream: closing the store drops only the
// ladder's references; a stream still reading keeps every level it holds
// open and drains the rest of its union, and holds nothing once it closes.
func TestSupersededLevelStoreCloseUnderStream(t *testing.T) {
	sim := testSim()
	v, dir := diskStoreView(t, sim)
	want := 600
	for i := 0; i < 2; i++ {
		ingest(t, v, 150, uint64(60+i), uint64(i+1)<<32)
		want += 150
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	s := mustQuery(t, v, record.FullBox(1), 62)
	for i := 0; i < 20; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Store().Close(); err != nil {
		t.Fatal(err)
	}
	checkHandles(t, dir, "store closed under a stream", 2, 0)
	if got := drain(t, s); len(got)+20 != want {
		t.Fatalf("stream over a closed store returned 20+%d records, want %d", len(got), want)
	}
	s.Close()
	checkHandles(t, dir, "stream closed after its store", 0, 0)
}

// TestSupersededLevelEstimateCountReleases: EstimateCount and Verify read
// the ladder through a snapshot of their own; interleaved with compactions,
// they leave no descriptor behind.
func TestSupersededLevelEstimateCountReleases(t *testing.T) {
	sim := testSim()
	v, dir := diskStoreView(t, sim)
	q := record.Box1D(0, workload.KeyDomain/2)
	for i := 0; i < 12; i++ {
		ingest(t, v, 60, uint64(200+i), uint64(i+1)<<32)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := v.EstimateCount(q); err != nil {
			t.Fatal(err)
		}
		if _, err := v.CompactOnce(v.Store().Levels() > 2); err != nil {
			t.Fatal(err)
		}
		if _, err := v.EstimateCount(q); err != nil {
			t.Fatal(err)
		}
		if err := v.Store().Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if v.WriteStats().Compactions == 0 {
		t.Fatal("no merge ran; the test exercised nothing")
	}
	checkHandles(t, dir, "estimates interleaved with compactions", v.Store().Levels(), 0)
	if err := v.Store().Close(); err != nil {
		t.Fatal(err)
	}
	checkHandles(t, dir, "store closed", 0, 0)
}
