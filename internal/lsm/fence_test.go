package lsm

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/stats"
	"sampleview/internal/workload"
)

// testPerPage is how many records one 4096-byte test page holds.
const testPerPage = 4096 / record.Size

// memLevel writes recs (and tombs) as an in-memory level on sim.
func memLevel(t testing.TB, sim *iosim.Sim, gen uint64, recs, tombs []record.Record) *level {
	t.Helper()
	lvl, err := writeDelta(sim, "", gen, recs, slices.Clone(tombs))
	if err != nil {
		t.Fatal(err)
	}
	return lvl
}

// bruteForce is the reference the run reads are held to: all, a level's
// whole insert region, filtered by q.
func bruteForce(all []record.Record, q record.Box) []record.Record {
	var want []record.Record
	for i := range all {
		if q.ContainsRecord(&all[i]) {
			want = append(want, all[i])
		}
	}
	return want
}

func byKeySeq(a, b record.Record) int { return keySeqOf(&a).compare(keySeqOf(&b)) }

// runPages returns the insert pages [first, last) run j's window for c
// touches.
func runPages(l *level, j int, c *candRange) (first, last int64) {
	lo, hi := l.runWindow(j, c)
	if lo == hi {
		return 0, 0
	}
	per := int64(l.inserts.PerPage())
	return l.blockSlot[lo] / per, (l.blockSlot[hi]-1)/per + 1
}

// windowPages is how many insert pages the windows of runs [from, to) hold
// for q.
func windowPages(l *level, q record.Box, from, to int) int64 {
	c := l.candidates(q)
	var n int64
	for j := from; j < to; j++ {
		first, last := runPages(l, j, &c)
		n += last - first
	}
	return n
}

// contains reports whether rec is in the candidate set c.
func (c *candRange) contains(rec *record.Record) bool {
	ks := keySeqOf(rec)
	return c.lo.compare(ks) <= 0 && (c.open || ks.compare(c.hi) < 0)
}

// checkCandidates holds one level and predicate to the candidate contract:
// the rank-fence arithmetic sizes the candidate set exactly, the set is the
// matches plus fewer than 2*rankFenceEvery strangers off the ends of the key
// range, every run's read returns its share of it charging exactly the run's
// window, and the union of the runs filtered by q is what filtering the
// whole region returns.
func checkCandidates(t testing.TB, sim *iosim.Sim, l *level, all []record.Record, q record.Box) {
	t.Helper()
	c := l.candidates(q)
	var inSet, keyMatches int64
	for i := range all {
		if c.contains(&all[i]) {
			inSet++
		}
		if q.Dim(0).Contains(all[i].Key) {
			keyMatches++
		}
	}
	if c.n > 0 && inSet != c.n {
		t.Fatalf("%v: rank fences size the candidate set at %d, %d inserts lie between them", q, c.n, inSet)
	}
	if c.n > 0 && (c.n < keyMatches || c.n >= keyMatches+2*rankFenceEvery) {
		t.Fatalf("%v: %d candidates for %d inserts in the key range", q, c.n, keyMatches)
	}
	ck := sim.Fork()
	itf, page := l.inserts.OnClock(ck), make([]byte, l.file.PageSize())
	var union []record.Record
	for j := range l.runEnd {
		before := len(union)
		var err error
		if union, err = l.readRun(itf, j, &c, page, union); err != nil {
			t.Fatalf("%v run %d: %v", q, j, err)
		}
		if !slices.IsSortedFunc(union[before:], byKeySeq) {
			t.Fatalf("%v run %d: candidates out of key order", q, j)
		}
	}
	if int64(len(union)) != c.n {
		t.Fatalf("%v: the runs hold %d candidates, the rank fences say %d", q, len(union), c.n)
	}
	if read, win := ck.Counters().Reads(), windowPages(l, q, 0, len(l.runEnd)); read != win {
		t.Fatalf("%v: read %d pages, the windows hold %d", q, read, win)
	}
	got, want := bruteForce(union, q), bruteForce(all, q)
	slices.SortFunc(got, byKeySeq)
	slices.SortFunc(want, byKeySeq)
	if !slices.Equal(got, want) {
		t.Fatalf("%v: the runs' candidates hold %d matches, brute force %d", q, len(got), len(want))
	}
}

// TestFencedReadMatchesBruteForce is the differential property test of the
// candidate arithmetic and the run reads: over levels with long
// duplicate-key runs (one key filling several pages, so it straddles run
// fences and rank fences alike), a single-page level, an empty one and a
// plain uniform level, for seeded random 1-d and 2-d boxes and the edge
// predicates.
func TestFencedReadMatchesBruteForce(t *testing.T) {
	sim := testSim()
	rng := rand.New(rand.NewPCG(5, 6))
	var seq uint64
	mk := func(n int, key func(i int) int64) []record.Record {
		recs := make([]record.Record, n)
		for i := range recs {
			seq++
			recs[i] = record.Record{Key: key(i), Amount: rng.Int64N(1000), Seq: seq}
		}
		rng.Shuffle(n, func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
		return recs
	}
	levels := map[string]*level{
		// 12 distinct keys over 30 pages: every key's run is 2.5 pages long.
		"duplicates": memLevel(t, sim, 1, mk(30*testPerPage, func(i int) int64 { return int64(i%12) * 100 }), nil),
		// One run of 3 pages inside otherwise distinct keys.
		"one-run": memLevel(t, sim, 2, mk(20*testPerPage, func(i int) int64 {
			if i < 3*testPerPage {
				return 5000
			}
			return int64(i) * 37 % 10000
		}), nil),
		"single-page": memLevel(t, sim, 3, mk(testPerPage-3, func(i int) int64 { return int64(i) * 10 }), nil),
		"uniform":     memLevel(t, sim, 4, mk(50*testPerPage, func(int) int64 { return rng.Int64N(1 << 20) }), nil),
		"empty":       memLevel(t, sim, 5, nil, mk(3, func(i int) int64 { return int64(i) })),
	}
	if n := len(levels["uniform"].runEnd); n < 3 {
		t.Fatalf("fixture: the uniform level has %d runs; the case needs several", n)
	}
	for name, l := range levels {
		all, err := readAll(l.inserts, nil)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := int64(0), int64(100)
		if l.nIns > 0 {
			lo, hi = l.insBounds[0][0], l.insBounds[0][1]
		}
		span := hi - lo + 1
		boxes := []record.Box{
			record.FullBox(1), record.FullBox(2),
			record.Box1D(lo-500, lo-1), record.Box1D(hi+1, hi+500), // wholly outside
			record.Box1D(lo-500, lo), record.Box1D(hi, hi+500), // touching the bounds
			record.Box1D(lo, lo), record.Box1D(hi, hi), // Lo == Hi on the extreme keys
			record.Box2D(lo, hi, 2000, 3000), // key range matches, second dimension never does
		}
		for _, f := range l.blockKey { // Lo == Hi on every block fence, and just around it
			boxes = append(boxes, record.Box1D(f, f), record.Box1D(f-1, f-1), record.Box1D(f+1, f+1),
				record.Box2D(f, f, 0, 499))
		}
		for _, r := range l.ranks { // the same on every rank fence
			boxes = append(boxes, record.Box1D(r.key, r.key), record.Box1D(r.key-1, r.key-1), record.Box1D(r.key+1, r.key+1))
		}
		for i := 0; i < 200; i++ {
			a, b := lo-10+rng.Int64N(span+20), lo-10+rng.Int64N(span+20)
			if a > b {
				a, b = b, a
			}
			boxes = append(boxes, record.Box1D(a, b), record.Box2D(a, b, rng.Int64N(500), 500+rng.Int64N(500)))
		}
		t.Run(name, func(t *testing.T) {
			for _, q := range boxes {
				checkCandidates(t, sim, l, all, q)
			}
		})
	}
	if l := levels["duplicates"]; windowPages(l, record.Box1D(300, 300), 0, len(l.runEnd)) < 3 {
		t.Fatal("the duplicate run does not straddle fences; the case proves nothing")
	}
}

// FuzzDeltaCandidates drives checkCandidates over fuzzed level shapes (size,
// key cardinality) and predicates.
func FuzzDeltaCandidates(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint16(50), int64(10), int64(30), int64(0), int64(999))
	f.Add(uint64(2), uint16(40), uint16(1), int64(0), int64(0), int64(100), int64(200))
	f.Add(uint64(3), uint16(3000), uint16(3000), int64(-5), int64(4000), int64(0), int64(10))
	f.Add(uint64(4), uint16(0), uint16(7), int64(1), int64(2), int64(3), int64(4))
	f.Fuzz(func(t *testing.T, seed uint64, n, keys uint16, lo, hi, alo, ahi int64) {
		sim := testSim()
		rng := rand.New(rand.NewPCG(seed, 1))
		recs := make([]record.Record, int(n)%4096)
		for i := range recs {
			// An odd multiplier keeps the scattered Seqs distinct.
			recs[i] = record.Record{Key: rng.Int64N(int64(keys) + 1), Amount: rng.Int64N(1000), Seq: seed + uint64(i)*0x9e3779b97f4a7c15}
		}
		l := memLevel(t, sim, 1, recs, nil)
		if err := l.verify(); err != nil {
			t.Fatal(err)
		}
		checkCandidates(t, sim, l, recs, record.Box1D(lo, hi))
		checkCandidates(t, sim, l, recs, record.Box2D(lo, hi, alo, ahi))
	})
}

// keyed returns n records with the distinct keys first, first+step, ... in
// shuffled order, Seqs from seqBase.
func keyed(n int, first, step int64, seqBase uint64) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: first + int64(i)*step, Seq: seqBase + uint64(i)}
	}
	rng := rand.New(rand.NewPCG(seqBase, 1))
	rng.Shuffle(n, func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
	return recs
}

// ladderView is a view over a 300-record base with `levels` flushed levels
// of n keyed inserts each, keys interleaved over one domain of 10n.
func ladderView(t *testing.T, sim *iosim.Sim, levels, n int) *View {
	t.Helper()
	v := buildView(t, sim, 300, 1)
	for g := uint64(1); g <= uint64(levels); g++ {
		for _, rec := range keyed(n, int64(g), 10, g<<32) {
			if err := v.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// baseReads is what draining q's base stream alone charges a fresh clock.
func baseReads(t *testing.T, sim *iosim.Sim, v *View, q record.Box) int64 {
	t.Helper()
	ck := sim.Fork()
	s, err := v.Main().WithClock(ck).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, err = s.Next(); err == nil; _, err = s.Next() {
	}
	if err != io.EOF {
		t.Fatal(err)
	}
	return ck.Counters().Reads()
}

// TestOpenChargesOnlyTheWindow pins the laziness of the ladder read on a
// four-level ladder of 100-page levels (strata of 1, 4, 16 and 79 pages):
// whatever the selectivity, the open charges each level one seek and the
// window of its first run — a constant number of pages, where the key-ordered
// layout read a quarter of every level for a 25% predicate; the charge then
// grows as samples are drawn, and a drained stream has charged every run's
// window exactly once.
func TestOpenChargesOnlyTheWindow(t *testing.T) {
	sim := testSim()
	const n = 100 * testPerPage
	v := ladderView(t, sim, 4, n)
	levels := v.Store().snapshotLevels()
	if len(levels) != 4 || levels[0].inserts.NumPages() != 100 || len(levels[0].runEnd) != 4 {
		t.Fatalf("fixture: %d levels of %d pages in %d runs, want 4 of 100 in 4",
			len(levels), levels[0].inserts.NumPages(), len(levels[0].runEnd))
	}
	domain := int64(n * 10)
	for _, sel := range []float64{0.0025, 0.025, 0.25, 1} {
		width := int64(sel * float64(domain))
		for _, lo := range []int64{0, domain / 3, domain - width} {
			q := record.Box1D(lo, lo+width-1)
			var firstRuns, every int64
			for _, l := range levels {
				firstRuns += windowPages(l, q, 0, 1)
				every += windowPages(l, q, 0, len(l.runEnd))
			}
			ck := sim.Fork()
			s, err := v.QueryClocked(ck, q, rand.New(rand.NewPCG(1, 2)))
			if err != nil {
				t.Fatal(err)
			}
			open := ck.Counters()
			if open.Reads() != firstRuns || open.Reads() > 3*4 || open.RandomReads > 4 {
				t.Fatalf("%v%% at %d: open read %d pages in %d seeks; the first runs' windows hold %d, and 4 levels allow 12 pages and 4 seeks",
					sel*100, lo, open.Reads(), open.RandomReads, firstRuns)
			}
			var total int64
			for g := uint64(1); g <= 4; g++ {
				total += int64(len(bruteForce(keyed(n, int64(g), 10, g<<32), q)))
			}
			var got int64
			for ; got < total/10; got++ { // a tenth of the draw is past the first two runs and short of the last
				if _, err := s.Next(); err != nil {
					t.Fatal(err)
				}
			}
			tenth := ck.Counters().Reads()
			if sel >= 0.25 && (tenth <= open.Reads() || tenth >= every) {
				t.Fatalf("%v%% at %d: %d pages charged at open, %d a tenth of the way, %d windows in all: the charge does not grow with the draw",
					sel*100, lo, open.Reads(), tenth, every)
			}
			got += int64(len(drain(t, s)))
			if want := every + baseReads(t, sim, v, q); ck.Counters().Reads() != want {
				t.Fatalf("%v%% at %d: drained stream read %d pages, every window once is %d", sel*100, lo, ck.Counters().Reads(), want)
			}
			if base := int64(len(bruteForce(mustDrainBase(t, v), q))); got != total+base {
				t.Fatalf("%v%% at %d: drained %d records, want %d", sel*100, lo, got, total+base)
			}
		}
	}
}

// mustDrainBase returns every base record of v.
func mustDrainBase(t *testing.T, v *View) []record.Record {
	t.Helper()
	s, err := v.Main().Query(record.FullBox(v.Main().Dims()))
	if err != nil {
		t.Fatal(err)
	}
	var out []record.Record
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// TestRunLoadsAllocateNoReadAheadBuffer: every run load of a stream goes
// through the one page buffer the stream owns. A reader-per-load would
// allocate pagefile's eight-page read-ahead each time — with 64 KiB pages,
// 512 KiB per load, four of them at open alone.
func TestRunLoadsAllocateNoReadAheadBuffer(t *testing.T) {
	sim := iosim.New(iosim.DefaultModel())
	per := sim.Model().PageSize / record.Size
	v := ladderView(t, sim, 4, 6*per)
	q := record.Box1D(0, int64(6*per*10/50))
	open := func() {
		s, err := v.QueryClocked(sim.Fork(), q, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			t.Fatal(err)
		}
		for _, err = s.Next(); err == nil; _, err = s.Next() {
		}
		if err != io.EOF {
			t.Fatal(err)
		}
		s.Close()
	}
	open()
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		open()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(8 * sim.Model().PageSize); least >= limit {
		t.Fatalf("opening and draining a stream over 4 levels allocated %d bytes, one read-ahead buffer is %d", least, limit)
	}
}

// faultFixture is a small view whose every stored page the fault tests can
// probe: a base tree, two flushed levels of 10 insert pages (runs of about
// 1, 4 and 5 pages) with distinct interleaved keys, and a few memview
// records.
type faultFixture struct {
	sim    *iosim.Sim
	v      *View
	files  []*pagefile.File // base file, then the level files newest first
	levels []*level         // newest first
	all    []record.Record  // every live record
	held   map[*level][]record.Record
}

func newFaultFixture(t *testing.T) *faultFixture {
	t.Helper()
	sim := testSim()
	base := keyed(200, 7, 2000, 0)
	rel, err := stage(sim, func(write func(*record.Record) error) error {
		for i := range base {
			if err := write(&base[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bf := pagefile.NewMem(sim)
	tree, err := core.Create(bf, rel, core.Params{Height: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store, err := CreateStore(sim, "")
	if err != nil {
		t.Fatal(err)
	}
	fx := &faultFixture{sim: sim, v: NewView(tree, store), all: base, held: make(map[*level][]record.Record)}
	for g := uint64(1); g <= 3; g++ {
		n := 10 * testPerPage
		if g == 3 {
			n = 30 // stays in the memview
		}
		recs := keyed(n, int64(g)*100, 1000, g<<32)
		fx.all = append(fx.all, recs...)
		for _, rec := range recs {
			if err := fx.v.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		if g < 3 {
			if err := fx.v.Flush(); err != nil {
				t.Fatal(err)
			}
			fx.held[store.snapshotLevels()[0]] = recs
		}
	}
	fx.levels = store.snapshotLevels()
	fx.files = []*pagefile.File{bf}
	for _, l := range fx.levels {
		if len(l.runEnd) != 3 {
			t.Fatalf("fixture: a level of %d runs, want 3", len(l.runEnd))
		}
		fx.files = append(fx.files, l.file)
	}
	return fx
}

// pageRef names one page of one fixture file.
type pageRef struct {
	file int // index into faultFixture.files
	page int64
}

// failing probes every page of every fixture file under the installed fault
// plan, each on a fresh clock, and returns the pages whose read fails the
// way is reports.
func (fx *faultFixture) failing(is func(error) bool) []pageRef {
	var out []pageRef
	for i, f := range fx.files {
		buf := make([]byte, f.PageSize())
		for p := int64(0); p < f.NumPages(); p++ {
			if err := f.OnClock(fx.sim.Fork()).Read(p, buf); is(err) {
				out = append(out, pageRef{i, p})
			}
		}
	}
	return out
}

// planHittingOneInsertPage searches seeds for a plan under which exactly one
// fixture page fails the way is reports, and that page is an insert page of
// a level that only the level's run `run` touches. It returns the level and
// the page's index within the level's insert region, leaving the plan
// installed.
func (fx *faultFixture) planHittingOneInsertPage(t *testing.T, plan iosim.FaultPlan, is func(error) bool, run int) (*level, int64) {
	t.Helper()
	for seed := uint64(1); seed < 5000; seed++ {
		plan.Seed = seed
		fx.sim.SetFaultPlan(plan)
		bad := fx.failing(is)
		if len(bad) != 1 || bad[0].file == 0 {
			continue
		}
		l := fx.levels[bad[0].file-1]
		i, per := bad[0].page-l.inserts.StartPage(), int64(testPerPage)
		if i >= 0 && i*per >= l.runStart(run) && (i+1)*per <= l.runEnd[run] {
			return l, i
		}
	}
	t.Fatalf("no seed under 5000 fails exactly one insert page inside run %d", run)
	return nil, 0
}

// matching returns the Seqs of the fixture's live records matching q.
func (fx *faultFixture) matching(q record.Box) map[uint64]bool {
	want := make(map[uint64]bool)
	for i := range fx.all {
		if q.ContainsRecord(&fx.all[i]) {
			want[fx.all[i].Seq] = true
		}
	}
	return want
}

// drainTyped drains s, counting typed errors instead of failing on them.
func drainTyped(t *testing.T, s *Stream) (got map[uint64]bool, lost, transient, other int) {
	t.Helper()
	got = make(map[uint64]bool)
	for {
		rec, err := s.Next()
		switch {
		case err == io.EOF:
			return got, lost, transient, other
		case IsWritePathLost(err):
			lost++
		case pagefile.IsTransient(err):
			transient++
		case err != nil:
			if other++; other > 1000 {
				t.Fatalf("stream wedged on %v", err)
			}
		case got[rec.Seq]:
			t.Fatalf("seq %d served twice", rec.Seq)
		default:
			got[rec.Seq] = true
		}
	}
}

func sameSet(t *testing.T, what string, got, want map[uint64]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: stream served %d records, want %d", what, len(got), len(want))
	}
	for seq := range want {
		if !got[seq] {
			t.Fatalf("%s: seq %d missing", what, seq)
		}
	}
}

// windowsHold reports whether any run's window for q holds insert page p of l.
func windowsHold(l *level, q record.Box, p int64) bool {
	c := l.candidates(q)
	for j := range l.runEnd {
		if first, last := runPages(l, j, &c); first <= p && p < last {
			return true
		}
	}
	return false
}

// TestDeadPageInsideAndOutsideTheWindow kills exactly one insert page of one
// level, in its last run. A stream whose windows hold the page opens clean
// and meets the loss when the draw reaches that run: one WritePathLostError,
// the level's earlier runs already served, the rest of the level gone,
// everything else served. A predicate whose windows do not hold the page
// never reads it: no error of any kind and the exact result.
func TestDeadPageInsideAndOutsideTheWindow(t *testing.T) {
	fx := newFaultFixture(t)
	l, dead := fx.planHittingOneInsertPage(t, iosim.FaultPlan{StickyRate: 0.02}, pagefile.IsDead, 2)

	inside := record.FullBox(1)
	ck := fx.sim.Fork()
	s, err := fx.v.QueryClocked(ck, inside, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if ck.FaultCounters().DeadPages != 0 {
		t.Fatal("the open read a page of the last run")
	}
	got, lost, transient, other := drainTyped(t, s)
	if lost != 1 || transient != 0 || other != 0 {
		t.Fatalf("dead page inside a window: %d WritePathLostErrors, %d transient and %d other errors, want 1, 0, 0", lost, transient, other)
	}
	want := fx.matching(inside)
	for _, rec := range fx.held[l] {
		if stratumOf(rec.Seq, l.nIns, strataCuts(l.nIns, testPerPage)) == 2 {
			delete(want, rec.Seq)
		}
	}
	sameSet(t, "inside", got, want)

	// The narrowest suffix of the key domain whose windows miss the page.
	var outside record.Box
	for _, f := range l.blockKey[l.runBlock[2]:l.runBlock[3]] {
		if q := record.Box1D(f, l.insBounds[0][1]); !windowsHold(l, q, dead) {
			outside = q
			break
		}
	}
	if outside.Dims() == 0 || windowPages(l, outside, 2, 3) == 0 {
		t.Fatal("fixture: no predicate reads the damaged run without the dead page")
	}
	ck = fx.sim.Fork()
	if s, err = fx.v.QueryClocked(ck, outside, rand.New(rand.NewPCG(3, 4))); err != nil {
		t.Fatal(err)
	}
	got, lost, transient, other = drainTyped(t, s)
	if lost != 0 || transient != 0 || other != 0 || ck.FaultCounters().DeadPages != 0 {
		t.Fatalf("dead page outside the windows: %d lost, %d transient, %d other errors, %d dead-page reads; want none",
			lost, transient, other, ck.FaultCounters().DeadPages)
	}
	sameSet(t, "outside", got, fx.matching(outside))
}

// TestTransientInsideTheWindowIsAbsorbedAtOpen makes one page fail past
// pagefile's own retry budget. In a first run the open absorbs the escaped
// transient by re-reading on the same clock. In a later run there is a
// caller to hand it to: the batch draw returns the records drawn before the
// fault with the error, and the retried call reloads the same run. Either
// way the stream serves the exact result.
func TestTransientInsideTheWindowIsAbsorbedAtOpen(t *testing.T) {
	plan := iosim.FaultPlan{TransientRate: 0.02, TransientBurst: 6, MaxAttempts: 2}
	q := record.FullBox(1)
	for run, surfaced := range map[int]bool{0: false, 2: true} {
		fx := newFaultFixture(t)
		fx.planHittingOneInsertPage(t, plan, pagefile.IsTransient, run)
		ck := fx.sim.Fork()
		s, err := fx.v.QueryClocked(ck, q, rand.New(rand.NewPCG(3, 4)))
		if err != nil {
			t.Fatalf("run %d: open did not absorb the transient: %v", run, err)
		}
		if n := ck.FaultCounters().Transient; (n >= int64(plan.MaxAttempts)) == surfaced {
			t.Fatalf("run %d: the stream's clock saw %d transient faults by the end of the open", run, n)
		}
		got := make(map[uint64]bool)
		var batch []record.Record
		faults := 0
		for {
			batch, err = s.AppendNext(batch[:0], 64)
			for _, rec := range batch {
				if got[rec.Seq] {
					t.Fatalf("run %d: seq %d served twice", run, rec.Seq)
				}
				got[rec.Seq] = true
			}
			if pagefile.IsTransient(err) {
				faults++
				continue
			}
			if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if len(batch) < 64 {
				break
			}
		}
		if (faults > 0) != surfaced {
			t.Fatalf("run %d: %d transient errors surfaced from the draw", run, faults)
		}
		sameSet(t, "transient", got, fx.matching(q))
	}
}

// TestVerifyNamesEachBrokenInvariant corrupts, one at a time, every
// property a level's readers trust and expects loading the level or
// Store.Verify to name each with its own lsm-prefixed error.
func TestVerifyNamesEachBrokenInvariant(t *testing.T) {
	// swap exchanges items i and j of a page of records; bump decrements
	// the 64-bit word at off, and bumpFence the fence region's word-th word.
	swap := func(i, j int) func(*level, []byte) {
		return func(_ *level, page []byte) {
			a, b := page[i*record.Size:(i+1)*record.Size], page[j*record.Size:(j+1)*record.Size]
			tmp := slices.Clone(a)
			copy(a, b)
			copy(b, tmp)
		}
	}
	bump := func(off int) func(*level, []byte) {
		return func(_ *level, page []byte) {
			binary.LittleEndian.PutUint64(page[off:], binary.LittleEndian.Uint64(page[off:])-1)
		}
	}
	bumpFence := func(word func(blocks int) int) func(*level, []byte) {
		return func(l *level, page []byte) { bump(8*word(len(l.blockKey)))(l, page) }
	}
	header := func(*level) int64 { return 0 }
	firstInserts := func(l *level) int64 { return l.inserts.StartPage() }
	lastPage := func(l *level) int64 { return l.file.NumPages() - 1 }
	cases := []struct {
		name, want string
		page       func(l *level) int64 // the page to corrupt
		edit       func(l *level, page []byte)
	}{
		{"insert order", "sorts before its predecessor", firstInserts, swap(1, 2)},
		// The fixture's first run ends one slot into the second page.
		{"stratum", "of stratum 1 is stored in run 0", func(l *level) int64 { return l.inserts.StartPage() + 1 }, swap(0, 1)},
		{"run offsets", "run 0 spans", header, bump(headerFixed + 8*8)},
		// The fence region is the file's last page: the block fences, their
		// checksums two to a word (block 0's in the low half), then the rank
		// fences' (Key, Seq) pairs.
		{"block fence", "block 1's fence is", lastPage, bumpFence(func(int) int { return 1 })},
		{"block checksum", "block 0's checksum is", lastPage, bumpFence(func(n int) int { return n })},
		{"rank fence", "rank fence 1 is", lastPage, bumpFence(func(n int) int { return n + (n+1)/2 + 2 })},
		{"tombstone order", "does not sort after its predecessor", func(l *level) int64 { return l.tombs.StartPage() }, swap(0, 1)},
		// The bloom region follows the header.
		{"bloom", "fails the level's bloom filter", func(*level) int64 { return 1 }, func(_ *level, page []byte) { clear(page) }},
		{"insert count", "run offsets", header, bump(headerFixed)},
		{"tombstone count", "tombstone region holds records past", header, bump(headerFixed + 8)},
		{"insert bounds", "insert bounds", header, bump(boundsOff)},
		{"tombstone bounds", "tombstone bounds", header, bump(boundsOff + 16*record.NumDims)},
	}
	seen := make(map[string]string)
	for _, c := range cases {
		sim := testSim()
		v := buildView(t, sim, 100, 1)
		recs := ingest(t, v, 3*testPerPage+5, 2, 1<<32)
		for seq := uint64(0); seq < 10; seq++ {
			if err := v.Delete(record.Record{Key: int64(seq), Seq: seq}); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := v.Store().Verify(); err != nil {
			t.Fatalf("%s: intact level fails Verify: %v", c.name, err)
		}
		l := v.Store().snapshotLevels()[0]
		if int(l.nIns) != len(recs) || l.nTombs != 10 || len(l.runEnd) != 2 || l.runEnd[0] != testPerPage+1 {
			t.Fatalf("fixture: level holds %d inserts in runs ending %v, %d tombstones", l.nIns, l.runEnd, l.nTombs)
		}
		page, n := make([]byte, l.file.PageSize()), c.page(l)
		if err := l.file.Read(n, page); err != nil {
			t.Fatal(err)
		}
		c.edit(l, page)
		if err := l.file.Write(n, page); err != nil {
			t.Fatal(err)
		}
		re, err := loadDelta(l.file, "level")
		if err == nil {
			v.Store().levels[0] = re
			err = v.Store().Verify()
		}
		if err == nil || !strings.HasPrefix(err.Error(), "lsm: ") || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: got %v, want an lsm: error containing %q", c.name, err, c.want)
		}
		if prev, dup := seen[err.Error()]; dup {
			t.Fatalf("%s and %s produce the same error %q", c.name, prev, err)
		}
		seen[err.Error()] = c.name
	}
}

// TestLayoutV1Rejected: a delta file of the Seq-ordered, fence-less layout 1,
// the wholly key-ordered layout 2 or the page-fenced layout 3 is refused with
// a typed error rather than read as if cut into checksummed blocks.
func TestLayoutV1Rejected(t *testing.T) {
	for _, version := range []uint32{1, 2, 3} {
		l := memLevel(t, testSim(), 1, keyed(50, 0, 1, 1), nil)
		page := make([]byte, l.file.PageSize())
		if err := l.file.Read(0, page); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(page[8:], version)
		if err := l.file.Write(0, page); err != nil {
			t.Fatal(err)
		}
		var le *DeltaLayoutError
		if _, err := loadDelta(l.file, "old.d000001"); !errors.As(err, &le) || le.Version != version {
			t.Fatalf("loading a v%d delta file returned %v, want a DeltaLayoutError for that version", version, err)
		}
	}
}

// exactFixture is a view with tombstones wherever a level insert can meet
// one: in the memview, in a newer non-adjacent level and in the level just
// above. It returns the view and the live records.
func exactFixture(t *testing.T, sim *iosim.Sim, dims int) (*View, []record.Record) {
	t.Helper()
	v := buildViewDims(t, sim, 500, 3, dims)
	live := make(map[uint64]record.Record)
	for _, rec := range mustDrainBase(t, v) {
		live[rec.Seq] = rec
	}
	var batches [][]record.Record
	del := func(rec record.Record) {
		if err := v.Delete(rec); err != nil {
			t.Fatal(err)
		}
		delete(live, rec.Seq)
	}
	for g := uint64(1); g <= 4; g++ {
		recs := ingest(t, v, 30*testPerPage, 10+g, g<<32)
		for _, rec := range recs {
			live[rec.Seq] = rec
		}
		// Batch g deletes every 7th record of each older batch (offset by g,
		// so no record is deleted twice) and a few base records.
		for _, older := range batches {
			for i := int(g); i < len(older); i += 7 * 4 {
				del(older[i])
			}
		}
		for seq := g * 20; seq < g*20+10; seq++ {
			del(live[seq])
		}
		batches = append(batches, recs)
		if g < 4 { // the fourth batch stays in the memview
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(v.Store().snapshotLevels()[0].runEnd); n < 3 {
		t.Fatalf("fixture: levels of %d runs, want at least 3", n)
	}
	out := make([]record.Record, 0, len(live))
	for _, rec := range live {
		out = append(out, rec)
	}
	return v, out
}

// TestLazyLevelsDrainExactly: with tombstones in the memview, in a newer
// level and in the level just above, a drained stream returns exactly the
// live matching set, for 1-d and 2-d predicates whose ends fall mid-run.
func TestLazyLevelsDrainExactly(t *testing.T) {
	for dims := 1; dims <= 2; dims++ {
		sim := testSim()
		v, live := exactFixture(t, sim, dims)
		rng := rand.New(rand.NewPCG(8, 9))
		boxes := []record.Box{record.FullBox(dims)}
		for i := 0; i < 12; i++ {
			a, b := rng.Int64N(workload.KeyDomain), rng.Int64N(workload.KeyDomain)
			q := record.Box1D(min(a, b), max(a, b))
			if dims == 2 {
				q = record.Box2D(min(a, b), max(a, b), rng.Int64N(workload.KeyDomain/2), workload.KeyDomain/2+rng.Int64N(workload.KeyDomain/2))
			}
			boxes = append(boxes, q)
		}
		for i, q := range boxes {
			got := drain(t, mustQuery(t, v, q, uint64(i)))
			want := bruteForce(live, q)
			if len(got) != len(want) {
				t.Fatalf("%v: drained %d records, %d are live and match", q, len(got), len(want))
			}
			for _, rec := range want {
				if _, ok := got[rec.Seq]; !ok {
					t.Fatalf("%v: live seq %d missing", q, rec.Seq)
				}
			}
		}
	}
}

// TestLazyLevelPrefixesAreUniform is the sampling half of the exactness
// claim: over 300 seeds, the first 10, 100 and 1000 records of a stream over
// a four-run level (beside a base, a second level and a memview) spread over
// eight equal key slices of a predicate cut mid-run as the matching
// population does. It buckets by key, not by record, and writes a fresh level
// (fresh Seqs) per seed: like a base leaf's sections, a record's stratum is
// fixed when its level is written — two streams over one level both see its
// first run's records first — and only the order within a run and the
// interleave are drawn per stream. What makes a prefix uniform is that the
// strata are independent of the keys, so that is what the test varies.
func TestLazyLevelPrefixesAreUniform(t *testing.T) {
	const buckets, seeds = 8, 300
	cuts := []int{10, 100, 1000}
	const lo, width = workload.KeyDomain / 4, workload.KeyDomain / 2
	q := record.Box1D(lo, lo+width-1)
	slice := func(key int64) int { return int((key - lo) * buckets / width) }
	observed := make([][]int64, len(cuts))
	expected := make([][]float64, len(cuts))
	for i := range cuts {
		observed[i], expected[i] = make([]int64, buckets), make([]float64, buckets)
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		sim := testSim()
		v := buildView(t, sim, 400, seed)
		pop := bruteForce(mustDrainBase(t, v), q)
		pop = append(pop, bruteForce(ingest(t, v, 100*testPerPage, seed+1000, seed<<32), q)...)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		pop = append(pop, bruteForce(ingest(t, v, 10*testPerPage, seed+2000, seed<<32|1<<30), q)...)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		pop = append(pop, bruteForce(ingest(t, v, 50, seed+3000, seed<<32|1<<31), q)...)
		if n := len(v.Store().snapshotLevels()[1].runEnd); n != 4 {
			t.Fatalf("fixture: the large level has %d runs, want 4", n)
		}
		var share [buckets]float64
		for i := range pop {
			share[slice(pop[i].Key)] += 1 / float64(len(pop))
		}
		s := mustQuery(t, v, q, seed)
		for n, c := 0, 0; c < len(cuts); n++ {
			rec, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			for i := c; i < len(cuts); i++ {
				observed[i][slice(rec.Key)]++
			}
			if n+1 == cuts[c] {
				c++
			}
		}
		for i, cut := range cuts {
			for b := range share {
				expected[i][b] += share[b] * float64(cut)
			}
		}
	}
	for i, cut := range cuts {
		p, err := stats.ChiSquarePValue(observed[i], expected[i])
		if err != nil {
			t.Fatal(err)
		}
		if p < 1e-4 {
			t.Fatalf("first %d records over %d seeds: key slices %v, expected %.0f (p=%g)", cut, seeds, observed[i], expected[i], p)
		}
	}
}

// wholePageRun is the reference a span read is held to: every page of run
// j's window read whole, every slot of the run on it decoded, the candidates
// of c kept in slot order.
func wholePageRun(t *testing.T, l *level, itf *pagefile.ItemFile, j int, c *candRange) []record.Record {
	t.Helper()
	first, last := runPages(l, j, c)
	per, page := int64(itf.PerPage()), make([]byte, itf.File().PageSize())
	var out []record.Record
	for p := first; p < last; p++ {
		payload, err := itf.File().ReadPayload(itf.StartPage()+p, page)
		if err != nil {
			t.Fatal(err)
		}
		for slot := max(l.runStart(j), p*per); slot < min(l.runEnd[j], (p+1)*per); slot++ {
			var rec record.Record
			rec.Unmarshal(payload[(slot-p*per)*record.Size:])
			if c.contains(&rec) {
				out = append(out, rec)
			}
		}
	}
	return out
}

// TestSpanReadMatchesWholePageDecode is the differential test of the block
// layout: over levels of many sizes (runs that start and end mid-block, runs
// holding a single slot of a page) and few or many distinct keys, for random,
// open-ended and fence-hugging predicates, every run's span read returns
// exactly — records and order — what decoding its window's pages whole and
// filtering by the candidate set returns, and charges the same pages.
func TestSpanReadMatchesWholePageDecode(t *testing.T) {
	sim := testSim()
	rng := rand.New(rand.NewPCG(31, 32))
	var midStart, midEnd, singleSlot, open int
	for trial := 0; trial < 60; trial++ {
		n, keys := 1+rng.IntN(60*testPerPage), 1+rng.Int64N(5000)
		recs := make([]record.Record, n)
		for i := range recs {
			recs[i] = record.Record{Key: rng.Int64N(keys), Amount: rng.Int64N(100), Seq: uint64(trial)<<32 | uint64(i)}
		}
		l := memLevel(t, sim, uint64(trial+1), recs, nil)
		for j := range l.runEnd {
			start, end := l.runStart(j), l.runEnd[j]
			if start%testPerPage%blockSlots != 0 {
				midStart++
			}
			if end%testPerPage%blockSlots != 0 {
				midEnd++
			}
			if end-start == 1 || start%testPerPage == testPerPage-1 || end%testPerPage == 1 {
				singleSlot++
			}
		}
		boxes := []record.Box{record.FullBox(1), record.Box1D(-1, -1), record.Box1D(keys, keys+10)}
		for i := 0; i < 20; i++ {
			a, b := rng.Int64N(keys+2)-1, rng.Int64N(keys+2)-1
			boxes = append(boxes, record.Box1D(min(a, b), max(a, b)), record.Box1D(a, 1<<62))
		}
		for i := 0; i < 5; i++ {
			f := l.blockKey[rng.IntN(len(l.blockKey))]
			boxes = append(boxes, record.Box1D(f, f), record.Box1D(f-1, f), record.Box1D(f, 1<<62))
		}
		for _, q := range boxes {
			c := l.candidates(q)
			if c.open && c.n > 0 {
				open++
			}
			page := make([]byte, l.file.PageSize())
			for j := range l.runEnd {
				ck, ref := sim.Fork(), sim.Fork()
				got, err := l.readRun(l.inserts.OnClock(ck), j, &c, page, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := wholePageRun(t, l, l.inserts.OnClock(ref), j, &c)
				if !slices.Equal(got, want) {
					t.Fatalf("level of %d, run %d, %v: span read returned %d records, whole pages %d", n, j, q, len(got), len(want))
				}
				if ck.Counters() != ref.Counters() || ck.Now() != ref.Now() {
					t.Fatalf("level of %d, run %d, %v: span read charged %+v, whole pages %+v", n, j, q, ck.Counters(), ref.Counters())
				}
			}
		}
	}
	if midStart == 0 || midEnd == 0 || singleSlot == 0 || open == 0 {
		t.Fatalf("coverage: %d runs starting mid-block, %d ending mid-block, %d single-slot pages, %d open ranges; want some of each",
			midStart, midEnd, singleSlot, open)
	}
}
