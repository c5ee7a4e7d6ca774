package core

import (
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// drainWithRetry drives a stream to completion, retrying transient errors
// and collecting degraded errors, with a bound to keep test failures from
// hanging.
func drainWithRetry(t *testing.T, s *Stream) (recs []record.Record, degraded []*DegradedError) {
	t.Helper()
	retries := 0
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return recs, degraded
		}
		if err != nil {
			var de *DegradedError
			if errors.As(err, &de) {
				degraded = append(degraded, de)
				continue
			}
			if pagefile.IsTransient(err) {
				if retries++; retries > 10000 {
					t.Fatal("stream stuck in transient retries")
				}
				continue
			}
			t.Fatalf("stream error: %v", err)
		}
		recs = append(recs, rec)
	}
}

// TestTransientRetryPreservesPrefix verifies that transient faults — even
// bursts long enough to escape the storage layer's retry budget — never
// change the emitted record sequence: the pending-leaf retry re-reads the
// same leaf, so the faulty run is byte-identical to the fault-free run.
func TestTransientRetryPreservesPrefix(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 2000, Params{Height: 5}, 3)
	q := record.NewBox(record.Range{Lo: 1 << 18, Hi: 3 << 18})

	clean, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, deg := drainWithRetry(t, clean)
	if len(deg) != 0 {
		t.Fatal("fault-free stream degraded")
	}

	sim.SetFaultPlan(iosim.FaultPlan{
		Seed: 11, TransientRate: 0.3, TransientBurst: 8, MaxAttempts: 2,
	})
	faulty, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, deg := drainWithRetry(t, faulty)
	if len(deg) != 0 {
		t.Fatalf("transient-only plan degraded the stream: %v", deg[0])
	}
	if faulty.transientRetries == 0 {
		t.Fatal("plan should have forced caller-level retries")
	}
	if len(got) != len(want) {
		t.Fatalf("faulty run emitted %d records, fault-free %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs under transient faults", i)
		}
	}
}

// TestDegradedStreamContinues verifies hard failures surface as typed
// DegradedErrors naming the lost leaf and sections, and that the stream
// keeps serving the surviving leaves with consistent accounting and no
// duplicate records.
func TestDegradedStreamContinues(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 2000, Params{Height: 5}, 3)
	// Search seeds for a plan that kills a queried leaf page, as
	// lsm's planHittingOneInsertPage does: a miss moves on, it does not skip.
	var s *Stream
	var recs []record.Record
	var degraded []*DegradedError
	for seed := uint64(4); len(degraded) == 0; seed++ {
		if seed == 4+50 {
			t.Fatal("no sticky plan in 50 seeds hit a leaf page")
		}
		sim.SetFaultPlan(iosim.FaultPlan{Seed: seed, StickyRate: 0.15})
		var err error
		if s, err = tree.Query(record.FullBox(1)); err != nil {
			t.Fatal(err)
		}
		recs, degraded = drainWithRetry(t, s)
	}
	if !s.Done() {
		t.Fatal("stream did not finish after degradation")
	}
	if got := s.degradedLeaves; got != int64(len(degraded)) {
		t.Fatalf("DegradedLeaves = %d, %d errors seen", got, len(degraded))
	}
	var lostSecs int64
	for _, de := range degraded {
		if de.Leaf < 0 || de.Leaf >= tree.NumLeaves() {
			t.Fatalf("degraded leaf %d out of range", de.Leaf)
		}
		if len(de.Sections) == 0 {
			t.Fatal("full-box query must lose every section of a lost leaf")
		}
		var dpe *pagefile.DeadPageError
		if !errors.As(de, &dpe) {
			t.Fatalf("degraded error should wrap DeadPageError, got %v", de.Err)
		}
		lostSecs += int64(len(de.Sections))
	}
	if got := s.degradedSections; got != lostSecs {
		t.Fatalf("DegradedSections = %d, want %d", got, lostSecs)
	}
	// Surviving records arrive exactly once.
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("record seq %d emitted twice", r.Seq)
		}
		seen[r.Seq] = true
	}
	if int64(len(recs)) >= tree.Count() {
		t.Fatal("degraded stream cannot have emitted the full relation")
	}
}

// TestFaultCountersDeterministicAcrossClocks verifies two streams with
// identical queries on private clocks observe identical fault schedules —
// record-for-record and counter-for-counter — regardless of prior traffic
// on the shared Sim.
func TestFaultCountersDeterministicAcrossClocks(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 2000, Params{Height: 5}, 3)
	sim.SetFaultPlan(iosim.FaultPlan{
		Seed: 21, TransientRate: 0.25, TransientBurst: 6, MaxAttempts: 2, StickyRate: 0.05,
	})
	q := record.NewBox(record.Range{Lo: 0, Hi: 1 << 19})

	type result struct {
		recs    []record.Record
		deg     int
		retries int64
		dl, ds  int64
		fc      iosim.FaultCounters
	}
	run := func() result {
		clk := sim.Fork()
		view := tree.WithClock(clk)
		s, err := view.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		recs, deg := drainWithRetry(t, s)
		return result{recs, len(deg), s.transientRetries, s.degradedLeaves, s.degradedSections, clk.FaultCounters()}
	}
	a := run()
	b := run()
	if a.deg != b.deg || a.retries != b.retries || a.dl != b.dl || a.ds != b.ds || a.fc != b.fc {
		t.Fatalf("fault accounting differs across identical runs:\n%+v\n%+v", a, b)
	}
	if len(a.recs) != len(b.recs) {
		t.Fatalf("record counts differ: %d vs %d", len(a.recs), len(b.recs))
	}
	for i := range a.recs {
		if a.recs[i] != b.recs[i] {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
}

// TestFsckPagesLocatesCorruption verifies FsckPages maps damage to the
// owning region, leaf and sections.
func TestFsckPagesLocatesCorruption(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 2000, Params{Height: 5}, 3)

	faults, err := tree.FsckPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 0 {
		t.Fatalf("healthy tree reported %d corrupt pages", len(faults))
	}

	// Damage one leaf-data page and one split-region page.
	leaf := tree.NumLeaves() / 2
	leafPage := tree.leaves[leaf].firstPage
	if err := tree.f.CorruptStored(leafPage, 12345); err != nil {
		t.Fatal(err)
	}
	if err := tree.f.CorruptStored(tree.splitStart(), 7); err != nil {
		t.Fatal(err)
	}
	faults, err = tree.FsckPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 {
		t.Fatalf("fsck found %d faults, want 2: %v", len(faults), faults)
	}
	var sawLeaf, sawSplits bool
	for _, pf := range faults {
		switch pf.Region {
		case "splits":
			sawSplits = true
		case "leaf":
			sawLeaf = true
			if pf.Leaf != leaf {
				t.Fatalf("corrupt page attributed to leaf %d, want %d", pf.Leaf, leaf)
			}
			if len(pf.Sections) == 0 {
				t.Fatal("leaf fault must name affected sections")
			}
			if !pagefile.IsCorrupt(pf.Err) {
				t.Fatalf("fault error %v is not a CorruptPageError", pf.Err)
			}
		default:
			t.Fatalf("unexpected region %q", pf.Region)
		}
	}
	if !sawLeaf || !sawSplits {
		t.Fatalf("missing expected faults: %v", faults)
	}
	// The degraded leaf surfaces as a typed stream error too.
	s, err := tree.Query(record.FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	_, degraded := drainWithRetry(t, s)
	if len(degraded) != 1 || degraded[0].Leaf != leaf {
		t.Fatalf("stream degradation %v, want exactly leaf %d", degraded, leaf)
	}
}

// flakyBackend fails the first read of every armed physical page with a
// transient error, before a byte of it moves.
type flakyBackend struct {
	countingBackend
	armed map[int64]bool
	fired int
}

func (b *flakyBackend) ReadPage(i int64, off int, dst []byte) error {
	if b.armed[i] {
		delete(b.armed, i)
		b.fired++
		return &pagefile.TransientError{Page: i, Attempts: 1}
	}
	return b.countingBackend.ReadPage(i, off, dst)
}

// TestTransientOnSecondPageLeavesNoResidue: the filtered read has decoded
// the matches of a leaf's first page into the arena when its second page
// fails. The failed stab must emit and park nothing, and the retried one
// exactly what a fault-free stab does: stab by stab the faulty stream's
// batches, emitted count and parked count equal the clean stream's.
func TestTransientOnSecondPageLeavesNoResidue(t *testing.T) {
	sim := tinySim()
	rel, err := workload.GenerateRelation(sim, 250, workload.Uniform, 6)
	if err != nil {
		t.Fatal(err)
	}
	fb := &flakyBackend{armed: map[int64]bool{}}
	tree, err := Create(pagefile.NewOn(sim, fb), rel, Params{Height: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	q := record.Box1D(workload.KeyDomain/4, 3*(workload.KeyDomain/4))
	type stabResult struct {
		batch           []record.Record
		emitted, parked int64
	}
	var want []stabResult
	clean, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for {
		batch, err := clean.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, stabResult{batch, clean.Emitted(), int64(clean.Buffered())})
	}

	// Arm the second page of every two-page leaf, noting which of them hold a
	// match on their first page: those are the stabs that fail with matches
	// already decoded.
	perPage := int64(tree.f.PageSize() / record.Size)
	matchesFirst := map[int64]bool{}
	for leaf := int64(0); leaf < tree.nLeaves; leaf++ {
		m := &tree.leaves[leaf]
		if ceilDiv(m.totalRecords(), perPage) != 2 {
			continue
		}
		sections, err := tree.readLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		seen := int64(0)
		for _, sec := range sections {
			for i := range sec {
				if seen < perPage && q.ContainsRecord(&sec[i]) {
					matchesFirst[leaf] = true
				}
				seen++
			}
		}
		fb.armed[m.firstPage+1] = true
	}
	faulty, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// The armed pages fail in the backend, unknown to the fault plan: a drain
	// pass would meet them and leave the leaves to stabs that then succeed.
	faulty.weighed = true
	residue := 0 // failed stabs whose first page had put matches in the arena
	for i, w := range want {
		emitted, parked := faulty.Emitted(), faulty.Buffered()
		got, err := faulty.NextBatch()
		for pagefile.IsTransient(err) {
			if faulty.Emitted() != emitted || faulty.Buffered() != parked || len(faulty.queued()) != 0 {
				t.Fatalf("stab %d failed and still emitted or parked records (emitted %d -> %d, parked %d -> %d)",
					i, emitted, faulty.Emitted(), parked, faulty.Buffered())
			}
			if matchesFirst[faulty.path[tree.h]-tree.nLeaves] {
				residue++
			}
			got, err = faulty.NextBatch()
		}
		if err != nil {
			t.Fatalf("stab %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w.batch) || faulty.Emitted() != w.emitted || int64(faulty.Buffered()) != w.parked {
			t.Fatalf("stab %d: %d records, emitted %d, parked %d; the fault-free stream: %d records, emitted %d, parked %d",
				i, len(got), faulty.Emitted(), faulty.Buffered(), len(w.batch), w.emitted, w.parked)
		}
	}
	if _, err := faulty.NextBatch(); err != io.EOF {
		t.Fatalf("the faulty stream outlived the fault-free one: %v", err)
	}
	if fb.fired == 0 || faulty.transientRetries != int64(fb.fired) {
		t.Fatalf("%d armed pages failed, the stream retried %d stabs", fb.fired, faulty.transientRetries)
	}
	if residue == 0 {
		t.Fatal("no failed stab had decoded a match before it failed; the test checked nothing")
	}
}

// TestTransientOnListingStabRereadsItsLeaf: the stab whose read brings the
// stabs to half the scan cost lists the drain pass's leaves after its
// shuttle reached its own leaf, so list keeps that leaf's need as 0. When
// that stab fails transiently, its retry must still read the leaf (stabNeed
// recomputes it while the stab is pending), and the stream must serve
// exactly the batches of its fault-free twin, stab by stab.
func TestTransientOnListingStabRereadsItsLeaf(t *testing.T) {
	sim := iosim.New(iosim.DefaultModel())
	rel, err := workload.GenerateRelation(sim, 40_000, workload.Uniform, 52)
	if err != nil {
		t.Fatal(err)
	}
	fb := &flakyBackend{armed: map[int64]bool{}}
	tree, err := Create(pagefile.NewOn(sim, fb), rel, Params{Height: 7, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	q := workload.NewQueryGen(52).Range1D(0.0025)
	open := func() *Stream {
		s, err := tree.WithClock(sim.Fork()).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	clean := open()
	var want [][]record.Record
	listedAt, leaf := -1, int64(-1)
	for {
		batch, err := clean.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if listedAt < 0 && len(clean.listed) != 0 {
			listedAt, leaf = len(want), clean.path[tree.h]-tree.nLeaves
		}
		want = append(want, batch)
	}
	if listedAt < 0 || !clean.passed {
		t.Fatalf("%v: listed at stab %d, passed %v; the test needs a drain that lists and passes", q, listedAt, clean.passed)
	}
	page := tree.leaves[leaf].firstPage
	fb.armed[page] = true
	faulty := open()
	for i, w := range want {
		got, err := faulty.NextBatch()
		if pagefile.IsTransient(err) {
			if i != listedAt || len(faulty.listed) == 0 {
				t.Fatalf("stab %d failed (listed %d leaves); the armed stab is %d, which lists", i, len(faulty.listed), listedAt)
			}
			reads := len(fb.reads)
			if got, err = faulty.NextBatch(); !slices.ContainsFunc(fb.reads[reads:], func(r pageRead) bool { return r.page == page }) {
				t.Fatalf("stab %d: the retry did not read leaf %d", i, leaf)
			}
		}
		if err != nil {
			t.Fatalf("stab %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("stab %d: %d records, the fault-free stream %d", i, len(got), len(w))
		}
	}
	if _, err := faulty.NextBatch(); err != io.EOF || fb.fired != 1 || !faulty.passed {
		t.Fatalf("after the fault-free stream's stabs: %v; %d armed reads failed, passed %v", err, fb.fired, faulty.passed)
	}
}
