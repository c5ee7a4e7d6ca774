package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// fuzzFixture is a small tree shared by every FuzzRangeQuery execution:
// built once, verified once with the structural fsck, and paired with the
// in-memory record list the fuzzed queries are checked against.
var fuzzFixture struct {
	once  sync.Once
	tree  *Tree
	recs  []record.Record
	whole [][][]record.Record
	err   error
}

func fuzzTree(t *testing.T) (*Tree, []record.Record, [][][]record.Record) {
	t.Helper()
	fuzzFixture.once.Do(func() {
		sim := testSim()
		rel, err := workload.GenerateRelation(sim, 600, workload.Uniform, 0xf02)
		if err != nil {
			fuzzFixture.err = err
			return
		}
		tree, err := Create(pagefile.NewMem(sim), rel, Params{Height: 4, Seed: 0xf02})
		if err != nil {
			fuzzFixture.err = err
			return
		}
		if err := tree.Verify(); err != nil {
			fuzzFixture.err = err
			return
		}
		recs, err := workload.CollectMatching(rel, record.FullBox(1))
		if err != nil {
			fuzzFixture.err = err
			return
		}
		fuzzFixture.tree, fuzzFixture.recs = tree, recs
		fuzzFixture.whole, fuzzFixture.err = wholeLeaves(tree)
	})
	if fuzzFixture.err != nil {
		t.Fatal(fuzzFixture.err)
	}
	return fuzzFixture.tree, fuzzFixture.recs, fuzzFixture.whole
}

// drainStabs drains a stream over q stab by stab on a forked clock and
// returns every stab's emitted batch, the clock and whether the stream
// finished by a drain pass.
func drainStabs(t *testing.T, tree *Tree, q record.Box, opts StreamOptions) ([][]record.Record, *iosim.Clock, bool) {
	t.Helper()
	ck := tree.f.Sim().Fork()
	s, err := tree.WithClock(ck).QueryWithOptions(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stabs [][]record.Record
	for {
		batch, err := s.NextBatch()
		if err == io.EOF {
			return stabs, ck, s.passed
		}
		if err != nil {
			t.Fatal(err)
		}
		stabs = append(stabs, batch)
	}
}

// checkSkipMatchesRead drains q with the key-sketch skip and with every leaf
// read. The skipping stream must emit the same batch on every stab. If it
// keeps to its stabs it must charge no more pages, and the same pages when q
// covers the data bounds (every section that holds a record then holds a
// match); if it finishes by a drain pass, which crosses pages it does not
// fetch, no more random reads and no more time. Its reads must pass
// checkSpanMatchesPrefix (whole is the tree's wholeLeaves). It returns the
// time each stream was charged and the records, in emission order.
func checkSkipMatchesRead(t *testing.T, tree *Tree, whole [][][]record.Record, q record.Box) (skipped, read time.Duration, recs []record.Record) {
	t.Helper()
	checkSpanMatchesPrefix(t, tree, whole, q, iosim.FaultPlan{})
	want, pub, _ := drainStabs(t, tree, q, StreamOptions{ReadEveryLeaf: true})
	got, ck, passed := drainStabs(t, tree, q, StreamOptions{})
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("query %v: the skipping stream's stabs differ from the published read's", q)
	}
	c, p := ck.Counters(), pub.Counters()
	switch {
	case passed && (c.RandomReads > p.RandomReads || ck.Now() > pub.Now()):
		t.Fatalf("query %v: the drain pass charged %d random reads and %v, reading every leaf %d and %v", q, c.RandomReads, ck.Now(), p.RandomReads, pub.Now())
	case !passed && (c.Reads() > p.Reads() || (q.ContainsBox(tree.DataBounds()) && c.Reads() != p.Reads())):
		t.Fatalf("query %v: skipping charged %d pages, reading every leaf %d", q, c.Reads(), p.Reads())
	}
	for _, b := range got {
		recs = append(recs, b...)
	}
	return ck.Now(), pub.Now(), recs
}

// wholeLeaves decodes every leaf of the tree with the fsck read, on a
// forked clock; no fault plan may be set.
func wholeLeaves(tree *Tree) ([][][]record.Record, error) {
	whole := make([][][]record.Record, tree.nLeaves)
	for leaf := range whole {
		var err error
		if whole[leaf], err = tree.WithClock(tree.f.Sim().Fork()).readLeaf(int64(leaf)); err != nil {
			return nil, err
		}
	}
	return whole, nil
}

// checkSpanMatchesPrefix drains q stab by stab under the fault plan twice in
// lockstep, as the stream runs and kept to its stabs (it never weighs a
// drain pass), and beside every stab that reads, reads the same leaf's whole
// prefix 1..k on a third clock. Every stab of both must hand the combine
// sigma_Q of each of its sections (whole holds every leaf's sections, from
// wholeLeaves); both must emit the same batch and fail with the same error at
// every stab; the stab-kept stream's reads must fail as the whole-prefix
// reads do and its clock must end identical to theirs: fetching only the
// sections the sketch cannot rule out moves no charge and no fault. The
// stream's pass is weighed by weighChecked. A stream that finishes by a pass
// must meet the same faults and be charged no more time than the stab-kept
// one, and no more random reads and no more time than a stream reading every
// leaf. It returns the number of stabs that failed and whether the stream
// took the pass.
func checkSpanMatchesPrefix(t *testing.T, tree *Tree, whole [][][]record.Record, q record.Box, plan iosim.FaultPlan) (failed int, passed bool) {
	t.Helper()
	sim := tree.f.Sim()
	sim.SetFaultPlan(plan)
	defer sim.SetFaultPlan(iosim.FaultPlan{})
	ca, cs, cb := sim.Fork(), sim.Fork(), sim.Fork()
	s, err := tree.WithClock(ca).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	stay, err := tree.WithClock(cs).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	stay.weighed = true
	prefix := tree.WithClock(cb)
	var dec leafDecoder
	for stab := 0; ; stab++ {
		if stab > 100_000 {
			t.Fatalf("query %v: stream stuck in retries", q)
		}
		if weighDue(t, s) {
			weighChecked(t, s, ca)
		}
		_, err := s.NextLeaf()
		_, errStay := stay.NextLeaf()
		if fmt.Sprint(err) != fmt.Sprint(errStay) {
			t.Fatalf("query %v stab %d: the stream failed with %v, kept to its stabs with %v", q, stab, err, errStay)
		}
		if !slices.Equal(s.queued(), stay.queued()) {
			t.Fatalf("query %v stab %d: the stream emitted %d records, kept to its stabs %d", q, stab, len(s.queued()), len(stay.queued()))
		}
		s.outHead, stay.outHead = len(s.out), len(stay.out)
		if err == io.EOF {
			break
		}
		leaf := s.path[tree.h] - tree.nLeaves
		k := s.reach(leaf)
		var want error
		if need, _ := s.need(leaf, k); need != 0 {
			_, want = prefix.readLeafInto(leaf, &dec, 1<<k-1, &q)
		}
		if got := errors.Unwrap(errStay); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %v leaf %d: the stab's read failed with %v, the whole-prefix read with %v", q, leaf, got, want)
		}
		if err != nil {
			failed++
			continue
		}
		for sec := 0; sec < k; sec++ {
			var want []record.Record
			for _, rec := range whole[leaf][sec] {
				if q.ContainsRecord(&rec) {
					want = append(want, rec)
				}
			}
			if got := s.dec.sections[sec]; !slices.Equal(got, want) || !slices.Equal(stay.dec.sections[sec], want) {
				t.Fatalf("query %v leaf %d section %d: the stab read %d matches, the whole prefix holds %d", q, leaf, sec+1, len(got), len(want))
			}
		}
	}
	if cs.Now() != cb.Now() || cs.Counters() != cb.Counters() || cs.FaultCounters() != cb.FaultCounters() {
		t.Fatalf("query %v: clocks diverge: stabs %v %+v %+v, whole-prefix reads %v %+v %+v", q,
			cs.Now(), cs.Counters(), cs.FaultCounters(), cb.Now(), cb.Counters(), cb.FaultCounters())
	}
	switch pub := publishedClock(t, tree, q); {
	case !s.passed && (ca.Now() != cs.Now() || ca.Counters() != cs.Counters()):
		t.Fatalf("query %v: a stream that took no pass was charged %v %+v, its stabs %v %+v", q, ca.Now(), ca.Counters(), cs.Now(), cs.Counters())
	case ca.FaultCounters() != cs.FaultCounters() || ca.Now() > cs.Now():
		t.Fatalf("query %v: the drain pass met faults %+v in %v, the stabs %+v in %v", q, ca.FaultCounters(), ca.Now(), cs.FaultCounters(), cs.Now())
	case ca.Counters().RandomReads > pub.Counters().RandomReads || ca.Now() > pub.Now():
		t.Fatalf("query %v: the stream charged %d random reads and %v, reading every leaf %d and %v", q, ca.Counters().RandomReads, ca.Now(), pub.Counters().RandomReads, pub.Now())
	}
	return failed, s.passed
}

// publishedClock drains q reading every leaf under the fault plan set,
// retrying failed stabs and passing over lost leaves, and returns its clock.
func publishedClock(t *testing.T, tree *Tree, q record.Box) *iosim.Clock {
	t.Helper()
	ck := tree.f.Sim().Fork()
	s, err := tree.WithClock(ck).QueryWithOptions(q, StreamOptions{ReadEveryLeaf: true})
	if err != nil {
		t.Fatal(err)
	}
	for stab := 0; stab < 100_000; stab++ {
		if _, err := s.NextLeaf(); err == io.EOF {
			return ck
		}
	}
	t.Fatalf("query %v: the published read is stuck in retries", q)
	return nil
}

// checkSpanUnderFaults runs checkSpanMatchesPrefix under every named fault
// profile with three plan seeds each, returning the stabs that failed and the
// runs that finished by a drain pass.
func checkSpanUnderFaults(t *testing.T, tree *Tree, whole [][][]record.Record, q record.Box) (failed, passes int) {
	t.Helper()
	for _, name := range iosim.Profiles() {
		for seed := uint64(1); seed <= 3; seed++ {
			plan, err := iosim.ProfilePlan(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			f, passed := checkSpanMatchesPrefix(t, tree, whole, q, plan)
			failed += f
			if passed {
				passes++
			}
		}
	}
	return failed, passes
}

// FuzzRangeQuery drains a full sample stream for an arbitrary range
// predicate over a tiny Verify-checked tree and asserts the results are
// consistent with the structure the fsck validated: every emitted record
// matches the predicate, no record is emitted twice (sampling is without
// replacement), the exhausted stream has returned exactly the brute-force
// matching set, and skipping leaves by key sketches changed nothing but
// the pages charged (checkSkipMatchesRead).
func FuzzRangeQuery(f *testing.F) {
	f.Add(int64(0), int64(workload.KeyDomain))
	f.Add(int64(5), int64(5))
	f.Add(int64(-10), int64(-1))
	f.Add(int64(workload.KeyDomain/4), int64(workload.KeyDomain/2))
	f.Add(int64(1)<<62, int64(3))
	f.Fuzz(func(t *testing.T, lo, hi int64) {
		if lo > hi {
			lo, hi = hi, lo
		}
		tree, recs, whole := fuzzTree(t)
		q := record.Box1D(lo, hi)
		_, _, got := checkSkipMatchesRead(t, tree, whole, q)
		seen := make(map[uint64]bool)
		for _, rec := range got {
			if !q.ContainsRecord(&rec) {
				t.Fatalf("stream emitted record (seq %d, key %d) outside [%d,%d]", rec.Seq, rec.Key, lo, hi)
			}
			if seen[rec.Seq] {
				t.Fatalf("record seq %d emitted twice: sampling must be without replacement", rec.Seq)
			}
			seen[rec.Seq] = true
		}
		want := 0
		for i := range recs {
			if q.ContainsRecord(&recs[i]) {
				want++
			}
		}
		if len(seen) != want {
			t.Fatalf("exhausted stream returned %d records, brute force finds %d", len(seen), want)
		}
	})
}

// TestSkipMatchesPublishedRead runs checkSkipMatchesRead over builds with 1
// and 4 workers, one- and two-dimensional trees on 4 KiB pages and on 1 KiB
// ones (leaves of 3 to 20 pages), and the edge predicates: empty, one stored
// key, Lo == Hi on a split key, beside the data bounds on either side, the
// data bounds and the full box, plus narrow ranges on which skipping must
// save time. Two narrow ranges also run checkSpanUnderFaults, and on the
// small trees one key and the data bounds too.
// On 4 KiB and 1 KiB pages the 3,000-record trees keep their 0.25% drains on
// their stabs; on the paper's 64 KiB pages the 40,000-record trees' drains
// finish by a pass, under every fault profile.
func TestSkipMatchesPublishedRead(t *testing.T) {
	for _, size := range []struct {
		name string
		sim  func() *iosim.Sim
		n    int64
		h    int // when not 0, every tree's height
	}{
		{"", testSim, 3000, 0},
		{"tiny-", tinySim, 3000, 0},
		{"64k-", func() *iosim.Sim { return iosim.New(iosim.DefaultModel()) }, 40_000, 7},
	} {
		for i, p := range []Params{
			{Height: 6, Seed: 3},
			{Height: 6, Seed: 3, Parallelism: 4},
			{Height: 5, Seed: 5, Dims: 2},
			{Height: 5, Seed: 5, Dims: 2, Parallelism: 4},
		} {
			name := fmt.Sprintf("%sdims%d-par%d", size.name, max(p.Dims, 1), max(p.Parallelism, 1))
			if size.h > 0 {
				if i%3 != 0 {
					continue // the builders' files are byte-identical: one of each dimension
				}
				p.Height = size.h
			}
			t.Run(name, func(t *testing.T) { checkSkipOnTree(t, size.sim(), size.n, p) })
		}
	}
}

func checkSkipOnTree(t *testing.T, sim *iosim.Sim, n int64, p Params) {
	tree, rel := buildTestTree(t, sim, n, p, p.Seed)
	recs, err := workload.CollectMatching(rel, record.FullBox(tree.dims))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := wholeLeaves(tree)
	if err != nil {
		t.Fatal(err)
	}
	full, bounds := record.FullBox(tree.dims), tree.DataBounds()
	key := func(lo, hi int64) record.Box { return full.WithDim(0, record.Range{Lo: lo, Hi: hi}) }
	lo, hi := tree.dataMin[0], tree.dataMax[0]
	preds := map[string]record.Box{
		"empty":        key(1, 0),
		"one key":      key(recs[17].Key, recs[17].Key),
		"root split":   key(tree.splits[1], tree.splits[1]),
		"deep split":   key(tree.splits[tree.nLeaves-1], tree.splits[tree.nLeaves-1]),
		"below bounds": key(lo-1000, lo-1),
		"above bounds": key(hi+1, hi+1000),
		"data bounds":  bounds,
		"full box":     full,
	}
	var narrowSkipped, narrowRead time.Duration
	failed, passes := 0, 0
	for i := int64(0); i < 8; i++ {
		at := lo + (hi-lo)*i/8
		preds[fmt.Sprintf("0.25%% at %d/8", i)] = key(at, at+(hi-lo)/400)
	}
	if tree.dims == 2 {
		r := bounds.Dim(1)
		preds["narrow amount"] = full.WithDim(1, record.Range{Lo: r.Lo, Hi: r.Lo + (r.Hi-r.Lo)/400})
	}
	for name, q := range preds {
		skipped, read, got := checkSkipMatchesRead(t, tree, whole, q)
		want := 0
		for i := range recs {
			if q.ContainsRecord(&recs[i]) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("%s: %d records, brute force finds %d", name, len(got), want)
		}
		if name[0] == '0' {
			narrowSkipped, narrowRead = narrowSkipped+skipped, narrowRead+read
		}
		if name == "0.25% at 0/8" || name == "0.25% at 4/8" || n == 3000 && (name == "one key" || name == "data bounds") {
			f, p := checkSpanUnderFaults(t, tree, whole, q)
			if failed += f; name[0] == '0' {
				passes += p
			}
		}
	}
	if failed == 0 {
		t.Fatal("no stab failed under any fault profile; the fault runs prove nothing")
	}
	t.Logf("%d of 42 faulted 0.25%% drains finished by a pass", passes)
	if n > 3000 && passes < 21 {
		t.Fatalf("%d faulted 0.25%% drains finished by a pass; want at least one per profile and seed", passes)
	}
	if narrowSkipped >= narrowRead {
		t.Fatalf("narrow predicates charged %v skipping, %v reading every leaf: nothing was skipped", narrowSkipped, narrowRead)
	}
}
