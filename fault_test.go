package sampleview

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/lsm"
)

// smallPages shrinks the simulated disk's pages so modest test relations
// span enough of them for per-page fault rates to bite.
func smallPages() iosim.Model {
	m := iosim.DefaultModel()
	m.PageSize = 2048
	m.RandomRead = time.Millisecond
	m.SequentialRead = 100 * time.Microsecond
	return m
}

// drainFaulty drives a stream to completion the way a resilient client
// would: transient errors are retried (the stream resumes at the same
// stab), degraded errors are recorded, anything else fails the test.
func drainFaulty(t *testing.T, s *Stream) (recs []Record, degraded int) {
	t.Helper()
	retries := 0
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return recs, degraded
		}
		if err != nil {
			if IsDegraded(err) {
				degraded++
				continue
			}
			if IsTransient(err) {
				if retries++; retries > 10000 {
					t.Fatal("stream stuck in transient retries")
				}
				continue
			}
			t.Fatalf("stream error of unexpected type: %v", err)
		}
		recs = append(recs, rec)
	}
}

// TestFlakyDiskInvisibleToCallers is the headline robustness criterion for
// the mild profile: under flaky-disk, every fault is absorbed inside the
// storage layer's retry budget, so callers see the exact record sequence a
// fault-free disk produces and zero errors of any kind.
func TestFlakyDiskInvisibleToCallers(t *testing.T) {
	recs := genRecords(4000, 7)
	q := Box1D(1<<18, 3<<19)

	clean, err := CreateFromSlice("", recs, Options{Seed: 9, DiskModel: smallPages()})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	plan, err := FaultProfile("flaky-disk", 42)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := CreateFromSlice("", recs, Options{Seed: 9, DiskModel: smallPages(), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()

	cs, err := clean.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := drainFaulty(t, cs)

	fs, err := flaky.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	for { // plain drain: no retry loop — errors here fail the criterion
		rec, err := fs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("flaky-disk leaked an error to the caller: %v", err)
		}
		got = append(got, rec)
	}
	if len(got) != len(want) {
		t.Fatalf("flaky run emitted %d records, fault-free %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs under flaky-disk", i)
		}
	}
	st := fs.Stats()
	if st.Faults.Transient == 0 {
		t.Fatal("profile injected no transient faults; test proves nothing")
	}
	if st.Retries != 0 || st.DegradedLeaves != 0 {
		t.Fatalf("flaky-disk must be absorbed below the sampler: %+v", st)
	}
}

// TestFaultStatsDeterministicAcrossParallelism verifies the determinism
// contract: with a fixed FaultPlan seed, each stream's fault schedule is a
// pure function of its own access sequence, so running K identical queries
// concurrently yields the same per-stream records and Stats counters as
// running them one at a time.
func TestFaultStatsDeterministicAcrossParallelism(t *testing.T) {
	recs := genRecords(4000, 3)
	plan, err := FaultProfile("flaky-deep", 77)
	if err != nil {
		t.Fatal(err)
	}
	v, err := CreateFromSlice("", recs, Options{Seed: 5, DiskModel: smallPages(), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	q := Box1D(0, 1<<19)

	type run struct {
		recs []Record
		st   IOStats
	}
	const k = 6
	one := func() run {
		s, err := v.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rs, _ := drainFaulty(t, s)
		return run{rs, s.Stats()}
	}

	seq := make([]run, k)
	for i := range seq {
		seq[i] = one()
	}
	par := make([]run, k)
	var wg sync.WaitGroup
	for i := range par {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			par[i] = one()
		}(i)
	}
	wg.Wait()

	if seq[0].st.Retries == 0 {
		t.Fatal("flaky-deep should force sampler-level retries")
	}
	for i := 1; i < k; i++ {
		if !reflect.DeepEqual(seq[i].st, seq[0].st) {
			t.Fatalf("sequential runs disagree:\n%+v\n%+v", seq[i].st, seq[0].st)
		}
	}
	for i := range par {
		if !reflect.DeepEqual(par[i].st, seq[0].st) {
			t.Fatalf("concurrent run %d diverged from sequential baseline:\n%+v\n%+v",
				i, par[i].st, seq[0].st)
		}
		if len(par[i].recs) != len(seq[0].recs) {
			t.Fatalf("concurrent run %d emitted %d records, want %d",
				i, len(par[i].recs), len(seq[0].recs))
		}
		for j := range par[i].recs {
			if par[i].recs[j] != seq[0].recs[j] {
				t.Fatalf("concurrent run %d record %d differs", i, j)
			}
		}
	}
}

// TestBitrotNeverSilent is the headline criterion for the corruption
// profiles: every record a stream emits under bitrot is byte-identical to a
// record of the source relation. Corruption may cost coverage (degraded
// leaves) but never truth.
func TestBitrotNeverSilent(t *testing.T) {
	recs := genRecords(6000, 11)
	byseq := make(map[uint64]Record, len(recs))
	for _, r := range recs {
		byseq[r.Seq] = r
	}
	v, err := CreateFromSlice("", recs, Options{Seed: 2, DiskModel: smallPages()})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Search seeds for a plan that rots a queried page: a miss moves on to
	// the next seed, it does not skip.
	var got []Record
	var degraded int
	var st IOStats
	for seed := uint64(1234); st.Faults.CorruptPages == 0; seed++ {
		if seed == 1234+50 {
			t.Fatal("no bitrot plan in 50 seeds hit a queried page")
		}
		plan, err := FaultProfile("bitrot", seed)
		if err != nil {
			t.Fatal(err)
		}
		v.InjectFaults(plan)
		s, err := v.Query(FullBox(1))
		if err != nil {
			t.Fatal(err)
		}
		got, degraded = drainFaulty(t, s)
		for i := range got {
			want, ok := byseq[got[i].Seq]
			if !ok || got[i] != want {
				t.Fatalf("stream emitted a record that is not in the source relation: %+v", got[i])
			}
		}
		st = s.Stats()
	}
	if int64(degraded) != st.DegradedLeaves {
		t.Fatalf("saw %d degraded errors, stats say %d leaves", degraded, st.DegradedLeaves)
	}
	if len(got)+degraded == 0 {
		t.Fatal("stream produced nothing")
	}
}

// TestDeltaLossMidStreamDegrades strikes the write path with the stream
// open and a tenth drawn: a delta level's later runs are read as the draw
// reaches them, so their pages can die after the open succeeded. The loss
// surfaces once as a degraded error, the level's unread remainder is gone,
// and the stream drains on: every record it serves is a source record,
// served once, and nothing buffered in memory is missing.
func TestDeltaLossMidStreamDegrades(t *testing.T) {
	recs := genRecords(3000, 21)
	v, err := CreateFromSlice("", recs, Options{Seed: 3, DiskModel: smallPages()})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	fresh := genRecords(2100, 22)
	for i := range fresh {
		fresh[i].Seq = 1_000_000 + uint64(i)
		if err := v.Insert(fresh[i]); err != nil {
			t.Fatal(err)
		}
		if i == 1999 { // the last hundred stay in the memview
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	byseq := make(map[uint64]Record, len(recs)+len(fresh))
	for _, r := range append(recs, fresh...) {
		byseq[r.Seq] = r
	}

	s, err := v.Query(FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	lost, degraded := 0, 0
	for {
		if len(seen) == 500 {
			v.InjectFaults(FaultPlan{Seed: 5, StickyRate: 1})
		}
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !IsDegraded(err) {
				t.Fatalf("stream error of unexpected type: %v", err)
			}
			if lsm.IsWritePathLost(err) {
				lost++
			}
			if degraded++; degraded > 10000 {
				t.Fatal("stream wedged on degraded errors")
			}
			continue
		}
		if want, ok := byseq[rec.Seq]; !ok || rec != want || seen[rec.Seq] {
			t.Fatalf("stream emitted %+v: not a source record, or served twice", rec)
		}
		seen[rec.Seq] = true
	}
	if lost != 1 {
		t.Fatalf("the lost level surfaced %d times, want exactly once", lost)
	}
	flushed := 0
	for _, r := range fresh[:2000] {
		if seen[r.Seq] {
			flushed++
		}
	}
	if flushed == 0 || flushed == 2000 {
		t.Fatalf("%d of the level's 2000 records served; the loss should cut it mid-way", flushed)
	}
	for _, r := range fresh[2000:] {
		if !seen[r.Seq] {
			t.Fatalf("in-memory record seq %d lost from the degraded stream", r.Seq)
		}
	}
}

// TestStreamCountsEveryErrorOnce: every error a stream returns is counted
// exactly once in its Stats — a transient one in Retries, a lost base leaf
// in DegradedLeaves, and a lost delta region, which surfaces once, as
// itself — so what a caller saw and what the stream reports reconcile, on
// both view kinds and every write-path shape.
func TestStreamCountsEveryErrorOnce(t *testing.T) {
	returned := 0
	goldenConfigs(t, func(cfg string, v goldenView) {
		for _, profile := range []string{"flaky-disk", "hell"} {
			for _, seed := range []uint64{1, 2} {
				plan, err := FaultProfile(profile, seed)
				if err != nil {
					t.Fatal(err)
				}
				v.inject(plan)
				for _, p := range goldenPreds {
					s, err := v.seeded(p.q, 42)
					if err != nil {
						continue // a failed open returns no stream to count on
					}
					errs, lost := 0, 0
					for {
						_, err := s.Next()
						if err == io.EOF {
							break
						}
						if err == nil {
							continue
						}
						if !IsDegraded(err) && !IsTransient(err) {
							t.Fatalf("%s %s %s/%d: stream error of unexpected type: %v", cfg, p.name, profile, seed, err)
						}
						if lsm.IsWritePathLost(err) {
							lost++
						}
						if errs++; errs > 10000 {
							t.Fatal("stream stuck in errors")
						}
					}
					st := s.Stats()
					if counted := st.Retries + st.DegradedLeaves + int64(lost); counted != int64(errs) {
						t.Errorf("%s %s %s/%d: returned %d errors, Stats counts %d (retries %d, degraded leaves %d, lost regions %d)",
							cfg, p.name, profile, seed, errs, counted, st.Retries, st.DegradedLeaves, lost)
					}
					returned += errs
				}
			}
		}
		v.inject(FaultPlan{})
	})
	if returned == 0 {
		t.Fatal("no stream returned an error; the test checked nothing")
	}
}

// TestInjectFaultsAndViewStats covers runtime plan swaps: InjectFaults
// replaces the schedule on a live view, FaultPlan reads it back, and the
// view-level Stats aggregate the fault counters of every stream.
func TestInjectFaultsAndViewStats(t *testing.T) {
	recs := genRecords(3000, 19)
	v, err := CreateFromSlice("", recs, Options{Seed: 1, DiskModel: smallPages()})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if p := v.FaultPlan(); p.Enabled() {
		t.Fatalf("fresh view has a fault plan: %+v", p)
	}

	plan, err := FaultProfile("flaky-disk", 8)
	if err != nil {
		t.Fatal(err)
	}
	v.InjectFaults(plan)
	if got := v.FaultPlan(); got != plan {
		t.Fatalf("FaultPlan = %+v, want %+v", got, plan)
	}
	s, err := v.Query(FullBox(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(len(recs)); err != nil {
		t.Fatal(err)
	}
	if v.Stats().Faults.Transient == 0 {
		t.Fatal("view stats did not aggregate the stream's fault counters")
	}

	v.InjectFaults(FaultPlan{})
	if v.FaultPlan().Enabled() {
		t.Fatal("InjectFaults(zero) did not clear the plan")
	}
}

// TestFsckReportsDiskDamage damages an on-disk view out-of-band (a single
// flipped byte, as real bit rot would) and verifies Fsck pinpoints the
// page while a healthy view reports nothing.
func TestFsckReportsDiskDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "view.sv")
	recs := genRecords(5000, 23)
	v, err := CreateFromSlice(path, recs, Options{Seed: 3, DiskModel: smallPages()})
	if err != nil {
		t.Fatal(err)
	}
	faults, err := v.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 0 {
		t.Fatalf("healthy view reported %d corrupt pages", len(faults))
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the middle of the file, past the superblock.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	v2, err := Open(path, Options{DiskModel: smallPages()})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	faults, err = v2.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 {
		t.Fatalf("fsck found %d corrupt pages, want 1: %v", len(faults), faults)
	}
	if faults[0].Region == "" {
		t.Fatalf("fault not located: %+v", faults[0])
	}
}
