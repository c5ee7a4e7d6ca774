package lsm

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"sampleview/internal/core"
	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

// testPerPage is how many records one 4096-byte test page holds.
const testPerPage = 4096 / record.Size

// memLevel writes recs (and tombs) as an in-memory level on sim.
func memLevel(t *testing.T, sim *iosim.Sim, gen uint64, recs, tombs []record.Record) *level {
	t.Helper()
	lvl, err := writeDelta(sim, "", gen, recs, slices.Clone(tombs))
	if err != nil {
		t.Fatal(err)
	}
	return lvl
}

// bruteForce is the reference the fenced read is held to: all, a level's
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

// windowPages is how many insert pages the fences leave for q.
func windowPages(t *testing.T, l *level, q record.Box) int64 {
	t.Helper()
	win, err := l.window(l.inserts, q)
	if err != nil {
		t.Fatal(err)
	}
	if win == nil {
		return 0
	}
	return win.NumPages()
}

// TestFencedReadMatchesBruteForce is the differential property test of the
// range read: over levels with long duplicate-key runs (one key filling
// several pages, so a run straddles fences), a single-page level and a
// plain uniform level, for seeded random 1-d and 2-d boxes and the edge
// predicates, matchingInserts returns exactly what filtering the whole
// region returns.
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
	}
	for name, l := range levels {
		all, err := readAll(l.inserts, nil)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := l.insBounds[0][0], l.insBounds[0][1]
		span := hi - lo + 1
		boxes := []record.Box{
			record.FullBox(1), record.FullBox(2),
			record.Box1D(lo-500, lo-1), record.Box1D(hi+1, hi+500), // wholly outside
			record.Box1D(lo-500, lo), record.Box1D(hi, hi+500), // touching the bounds
			record.Box1D(lo, lo), record.Box1D(hi, hi), // Lo == Hi on the extreme keys
			record.Box2D(lo, hi, 2000, 3000), // key range matches, second dimension never does
		}
		for _, f := range l.fences { // Lo == Hi on every fence key, and just around it
			boxes = append(boxes, record.Box1D(f, f), record.Box1D(f-1, f-1), record.Box1D(f+1, f+1),
				record.Box2D(f, f, 0, 499))
		}
		for i := 0; i < 200; i++ {
			a, b := lo-10+rng.Int64N(span+20), lo-10+rng.Int64N(span+20)
			if a > b {
				a, b = b, a
			}
			boxes = append(boxes, record.Box1D(a, b), record.Box2D(a, b, rng.Int64N(500), 500+rng.Int64N(500)))
		}
		for _, q := range boxes {
			ck := sim.Fork()
			got, err := l.matchingInserts(l.inserts.OnClock(ck), q)
			if err != nil {
				t.Fatalf("%s %v: %v", name, q, err)
			}
			if want := bruteForce(all, q); !slices.Equal(got, want) {
				t.Fatalf("%s %v: fenced read returned %d records, brute force %d", name, q, len(got), len(want))
			}
			if read, win := ck.Counters().Reads(), windowPages(t, l, q); read != win {
				t.Fatalf("%s %v: read %d pages, window is %d", name, q, read, win)
			}
		}
	}
	if l := levels["duplicates"]; windowPages(t, l, record.Box1D(300, 300)) < 3 {
		t.Fatal("the duplicate run does not straddle fences; the case proves nothing")
	}
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

// TestOpenChargesOnlyTheWindow pins the open-time cost: a stream's open
// reads, per level, exactly the pages the fences leave for the predicate —
// at most two of a 100-page level for a 0.25% predicate, where the
// whole-level scan read all 100.
func TestOpenChargesOnlyTheWindow(t *testing.T) {
	sim := testSim()
	v := buildView(t, sim, 300, 1)
	const n = 100 * testPerPage
	for g := uint64(1); g <= 3; g++ {
		for _, rec := range keyed(n, int64(g), 10, g<<32) {
			if err := v.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	levels := v.Store().snapshotLevels()
	if len(levels) != 3 || levels[0].inserts.NumPages() != 100 {
		t.Fatalf("fixture: %d levels of %d pages, want 3 of 100", len(levels), levels[0].inserts.NumPages())
	}
	domain := int64(n * 10)
	for _, c := range []struct {
		sel      float64
		perLevel int64 // bound on pages per level; 0 = none
	}{{0.0025, 2}, {0.025, 4}, {0.25, 26}, {1, 100}} {
		width := int64(c.sel * float64(domain))
		for _, lo := range []int64{0, domain / 3, domain - width} {
			q := record.Box1D(lo, lo+width-1)
			var want int64
			for _, l := range levels {
				w := windowPages(t, l, q)
				if w > c.perLevel {
					t.Fatalf("%v%% at %d: window of %d pages on one level, want <= %d", c.sel*100, lo, w, c.perLevel)
				}
				want += w
			}
			ck := sim.Fork()
			if _, err := v.QueryClocked(ck, q, rand.New(rand.NewPCG(1, 2))); err != nil {
				t.Fatal(err)
			}
			if got := ck.Counters().Reads(); got != want {
				t.Fatalf("%v%% at %d: open read %d pages, the windows hold %d", c.sel*100, lo, got, want)
			}
		}
	}
}

// faultFixture is a small view whose every stored page the fault tests can
// probe: a base tree, two flushed levels of 10 insert pages with distinct
// interleaved keys, and a few memview records.
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
// fixture page fails the way is reports, and that page is an interior
// insert page of a level. It returns the level and the page's index within
// the level's insert region, leaving the plan installed.
func (fx *faultFixture) planHittingOneInsertPage(t *testing.T, plan iosim.FaultPlan, is func(error) bool) (*level, int64) {
	t.Helper()
	for seed := uint64(1); seed < 5000; seed++ {
		plan.Seed = seed
		fx.sim.SetFaultPlan(plan)
		bad := fx.failing(is)
		if len(bad) != 1 || bad[0].file == 0 {
			continue
		}
		l := fx.levels[bad[0].file-1]
		if i := bad[0].page - l.inserts.StartPage(); i >= 3 && i < l.inserts.NumPages()-3 {
			return l, i
		}
	}
	t.Fatal("no seed under 5000 fails exactly one interior insert page")
	return nil, 0
}

// matching returns the Seqs of the fixture's live records matching q, minus
// those the given level holds.
func (fx *faultFixture) matching(q record.Box, except *level) map[uint64]bool {
	want := make(map[uint64]bool)
	for i := range fx.all {
		if q.ContainsRecord(&fx.all[i]) {
			want[fx.all[i].Seq] = true
		}
	}
	for _, rec := range fx.held[except] {
		delete(want, rec.Seq)
	}
	return want
}

// drainTyped drains s, counting typed errors instead of failing on them.
func drainTyped(t *testing.T, s *Stream) (got map[uint64]bool, lost, other int) {
	t.Helper()
	got = make(map[uint64]bool)
	for {
		rec, err := s.Next()
		switch {
		case err == io.EOF:
			return got, lost, other
		case IsWritePathLost(err):
			lost++
		case pagefile.IsTransient(err):
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

// TestDeadPageInsideAndOutsideTheWindow kills exactly one insert page of one
// level. A predicate whose window holds the page opens degraded: one
// WritePathLostError, that level's contribution gone, everything else
// served. A predicate whose window does not hold it never reads the page:
// no error of any kind and the exact result.
func TestDeadPageInsideAndOutsideTheWindow(t *testing.T) {
	fx := newFaultFixture(t)
	l, dead := fx.planHittingOneInsertPage(t, iosim.FaultPlan{StickyRate: 0.02}, pagefile.IsDead)

	inside := record.Box1D(l.fences[dead-1], l.fences[dead+1])
	ck := fx.sim.Fork()
	s, err := fx.v.QueryClocked(ck, inside, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatalf("open over a dead window page should degrade, got %v", err)
	}
	got, lost, other := drainTyped(t, s)
	if lost != 1 || other != 0 {
		t.Fatalf("dead page inside the window: %d WritePathLostErrors and %d other errors, want 1 and 0", lost, other)
	}
	sameSet(t, "inside", got, fx.matching(inside, l))

	outside := record.Box1D(l.fences[dead+2], l.insBounds[0][1])
	if windowPages(t, l, outside) == 0 {
		t.Fatal("fixture: the outside predicate reads nothing of the damaged level")
	}
	ck = fx.sim.Fork()
	if s, err = fx.v.QueryClocked(ck, outside, rand.New(rand.NewPCG(3, 4))); err != nil {
		t.Fatal(err)
	}
	got, lost, other = drainTyped(t, s)
	if lost != 0 || other != 0 || ck.FaultCounters().DeadPages != 0 {
		t.Fatalf("dead page outside the window: %d lost, %d other errors, %d dead-page reads; want none",
			lost, other, ck.FaultCounters().DeadPages)
	}
	sameSet(t, "outside", got, fx.matching(outside, nil))
}

// TestTransientInsideTheWindowIsAbsorbedAtOpen makes one window page fail
// past pagefile's own retry budget: the open must absorb the escaped
// transient by rescanning on the same clock, and serve the exact result.
func TestTransientInsideTheWindowIsAbsorbedAtOpen(t *testing.T) {
	fx := newFaultFixture(t)
	plan := iosim.FaultPlan{TransientRate: 0.02, TransientBurst: 6, MaxAttempts: 2}
	l, flaky := fx.planHittingOneInsertPage(t, plan, pagefile.IsTransient)

	q := record.Box1D(l.fences[flaky-1], l.fences[flaky+1])
	ck := fx.sim.Fork()
	s, err := fx.v.QueryClocked(ck, q, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatalf("open did not absorb the transient: %v", err)
	}
	if n := ck.FaultCounters().Transient; n < int64(plan.MaxAttempts) {
		t.Fatalf("the stream's clock saw %d transient faults; the retry ran elsewhere or not at all", n)
	}
	got, lost, other := drainTyped(t, s)
	if lost != 0 || other != 0 {
		t.Fatalf("%d lost, %d other errors after an absorbed transient", lost, other)
	}
	sameSet(t, "transient", got, fx.matching(q, nil))
}

// TestVerifyNamesEachBrokenInvariant corrupts, one at a time, every
// property a level's readers trust and expects Store.Verify to name each
// with its own lsm-prefixed error.
func TestVerifyNamesEachBrokenInvariant(t *testing.T) {
	// swap exchanges items i and j of a page of records; bump decrements
	// the 64-bit word at off.
	swap := func(i, j int) func([]byte) {
		return func(page []byte) {
			a, b := page[i*record.Size:(i+1)*record.Size], page[j*record.Size:(j+1)*record.Size]
			tmp := slices.Clone(a)
			copy(a, b)
			copy(b, tmp)
		}
	}
	bump := func(off int) func([]byte) {
		return func(page []byte) {
			binary.LittleEndian.PutUint64(page[off:], binary.LittleEndian.Uint64(page[off:])-1)
		}
	}
	header := func(*level) int64 { return 0 }
	cases := []struct {
		name, want string
		page       func(l *level) int64 // the page to corrupt
		edit       func(page []byte)
	}{
		{"insert order", "sorts before its predecessor", func(l *level) int64 { return l.inserts.StartPage() }, swap(1, 2)},
		// The fence region is the file's last page.
		{"fence", "fence 1 is", func(l *level) int64 { return l.file.NumPages() - 1 }, bump(8)},
		{"tombstone order", "does not sort after its predecessor", func(l *level) int64 { return l.tombs.StartPage() }, swap(0, 1)},
		// The bloom region follows the header.
		{"bloom", "fails the level's bloom filter", func(*level) int64 { return 1 }, func(page []byte) { clear(page) }},
		{"insert count", "insert region holds records past", header, bump(24)},
		{"tombstone count", "tombstone region holds records past", header, bump(32)},
		{"insert bounds", "insert bounds", header, bump(88)},
		{"tombstone bounds", "tombstone bounds", header, bump(88 + 16*record.NumDims)},
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
		if int(l.nIns) != len(recs) || l.nTombs != 10 {
			t.Fatalf("fixture: level holds %d inserts, %d tombstones", l.nIns, l.nTombs)
		}
		page, n := make([]byte, l.file.PageSize()), c.page(l)
		if err := l.file.Read(n, page); err != nil {
			t.Fatal(err)
		}
		c.edit(page)
		if err := l.file.Write(n, page); err != nil {
			t.Fatal(err)
		}
		re, err := loadDelta(l.file, "")
		if err != nil {
			t.Fatalf("%s: reloading the corrupted level: %v", c.name, err)
		}
		v.Store().levels[0] = re
		err = v.Store().Verify()
		if err == nil || !strings.HasPrefix(err.Error(), "lsm: ") || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Verify returned %v, want an lsm: error containing %q", c.name, err, c.want)
		}
		if prev, dup := seen[err.Error()]; dup {
			t.Fatalf("%s and %s produce the same error %q", c.name, prev, err)
		}
		seen[err.Error()] = c.name
	}
}

// TestLayoutV1Rejected: a delta file of the Seq-ordered, fence-less layout
// is refused with a typed error rather than range-read as if key-ordered.
func TestLayoutV1Rejected(t *testing.T) {
	l := memLevel(t, testSim(), 1, keyed(50, 0, 1, 1), nil)
	page := make([]byte, l.file.PageSize())
	if err := l.file.Read(0, page); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(page[8:], 1)
	if err := l.file.Write(0, page); err != nil {
		t.Fatal(err)
	}
	var le *DeltaLayoutError
	if _, err := loadDelta(l.file, "old.d000001"); !errors.As(err, &le) || le.Version != 1 {
		t.Fatalf("loading a v1 delta file returned %v, want a DeltaLayoutError for version 1", err)
	}
}
