package lsm

import (
	"path/filepath"
	"testing"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// TestDeleteThenInsertSameSeqAcrossSeal pins down last-write-wins ordering
// when a Seq is deleted in one sealed buffer and reinserted in the next:
// the tombstone masks only strictly older components, so the fresh insert
// must be served exactly once with its new coordinates.
func TestDeleteThenInsertSameSeqAcrossSeal(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 500, 1)

	g := workload.NewGenerator(workload.Uniform, 2)
	first := g.Next()
	first.Seq = 7 << 32
	if err := v.Insert(first); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil { // first lands in a level
		t.Fatal(err)
	}
	if err := v.Delete(first); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil { // tombstone-only newer level
		t.Fatal(err)
	}
	second := g.Next()
	second.Seq = first.Seq // same Seq, different coordinates
	if err := v.Insert(second); err != nil {
		t.Fatal(err)
	}

	got := drain(t, mustQuery(t, v, record.FullBox(1), 9))
	if len(got) != 501 {
		t.Fatalf("stream returned %d records, want 501", len(got))
	}
	rec, ok := got[first.Seq]
	if !ok {
		t.Fatal("reinserted Seq missing from stream")
	}
	if rec != second {
		t.Fatalf("stream served %+v for the reinserted Seq, want the newer %+v", rec, second)
	}
}

// TestTombstoneOnlyNewestLevelSurvivesReopen flushes a buffer holding only
// tombstones — producing a newest level with zero inserts — and verifies a
// store reopen keeps both the level and its masking effect.
func TestTombstoneOnlyNewestLevelSurvivesReopen(t *testing.T) {
	sim := testSim()
	prefix := filepath.Join(t.TempDir(), "edge")
	rel, err := workload.GenerateRelation(sim, 300, workload.Uniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.Create(pagefile.NewMem(sim), rel, core.Params{Height: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(sim, prefix)
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(tree, store)
	recs := ingest(t, v, 40, 2, 1<<32)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:10] {
		if err := v.Delete(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := store.Levels(); got != 2 {
		t.Fatalf("levels before close = %d, want 2", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(sim, prefix)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Levels(); got != 2 {
		t.Fatalf("levels after reopen = %d, want 2", got)
	}
	if got := re.stats().TombstonesPending; got != 10 {
		t.Fatalf("tombstones after reopen = %d, want 10", got)
	}

	got := drain(t, mustQuery(t, NewView(tree, re), record.FullBox(1), 9))
	if len(got) != 330 {
		t.Fatalf("stream returned %d records, want 330", len(got))
	}
	for _, rec := range recs[:10] {
		if _, ok := got[rec.Seq]; ok {
			t.Fatalf("deleted seq %d resurrected after reopen", rec.Seq)
		}
	}
	for _, rec := range recs[10:] {
		if _, ok := got[rec.Seq]; !ok {
			t.Fatalf("live seq %d missing after reopen", rec.Seq)
		}
	}
}

// TestCompactionManifestCrashKeepsInputLevels pins a recovery bug: a power
// cut during the compaction's manifest save (before the rename) leaves the
// old manifest authoritative, so the merge's input level files must NOT be
// deleted — recovery still reads them, and the merged output is the orphan.
func TestCompactionManifestCrashKeepsInputLevels(t *testing.T) {
	sim := testSim()
	prefix := filepath.Join(t.TempDir(), "cc")
	rel, err := workload.GenerateRelation(sim, 100, workload.Uniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.Create(pagefile.NewMem(sim), rel, core.Params{Height: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(sim, prefix)
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(tree, store)
	recs := ingest(t, v, 30, 2, 1<<32)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	recs = append(recs, ingest(t, v, 30, 3, 2<<32)...)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	sim.SetCrashPlan(iosim.CrashPlan{Point: iosim.CrashPreManifestRename})
	if _, err := v.CompactOnce(true); !iosim.IsCrash(err) {
		t.Fatalf("compaction across the cut returned %v, want a crash error", err)
	}
	store.Close() // post-cut close may fail; recovery is what matters

	re, err := OpenStore(testSim(), prefix)
	if err != nil {
		t.Fatalf("recovery open after mid-compaction manifest crash: %v", err)
	}
	defer re.Close()
	if got := re.Levels(); got != 2 {
		t.Fatalf("levels after recovery = %d, want the 2 inputs", got)
	}
	got := drain(t, mustQuery(t, NewView(tree, re), record.FullBox(1), 9))
	if len(got) != 160 {
		t.Fatalf("stream returned %d records, want 160", len(got))
	}
	for _, rec := range recs {
		if _, ok := got[rec.Seq]; !ok {
			t.Fatalf("flushed seq %d lost to the compaction crash", rec.Seq)
		}
	}
}
