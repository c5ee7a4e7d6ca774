package core

import (
	"io"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// TestSketchNeverExcludesAMatch is the property the skip rests on: for a
// key x of region r and any query range q holding x, quantizing q into r
// gives a span that the binary search finds x's sketch value in, whatever
// other keys the sorted sketch holds. The regions cover the edges of the
// quantization: keys at r.Lo and r.Hi, the whole int64 range (whose span
// wraps to 0), regions narrower than, exactly and just over 2^16 keys, and
// a single key.
func TestSketchNeverExcludesAMatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 0x5ce7c4))
	regions := []record.Range{
		{Lo: math.MinInt64, Hi: math.MaxInt64},
		{Lo: math.MinInt64, Hi: math.MinInt64 + 1000},
		{Lo: math.MaxInt64 - 1000, Hi: math.MaxInt64},
		{Lo: 0, Hi: 1<<16 - 1},
		{Lo: 0, Hi: 1 << 16},
		{Lo: -5, Hi: 300},
		{Lo: 42, Hi: 42},
	}
	for range 200 {
		a, b := int64(rng.Uint64()), int64(rng.Uint64())
		regions = append(regions, record.Range{Lo: min(a, b), Hi: max(a, b)})
	}
	// offset draws from [0, n), where n = 0 stands for 2^64 (a span that wrapped).
	offset := func(n uint64) int64 {
		if n == 0 {
			return int64(rng.Uint64())
		}
		return int64(rng.Uint64N(n))
	}
	// in draws a key of r: an end a third of the time each, else uniform.
	in := func(r record.Range) int64 {
		switch rng.IntN(3) {
		case 0:
			return r.Lo
		case 1:
			return r.Hi
		}
		return r.Lo + offset(uint64(r.Hi-r.Lo)+1)
	}
	for _, r := range regions {
		for range 200 {
			keys := make([]uint16, rng.IntN(40))
			for i := range keys {
				keys[i] = sketchKey(r, in(r))
			}
			x := in(r)
			keys = append(keys, sketchKey(r, x))
			slices.Sort(keys)
			// q holds x; each end sits on x, inside r, or past r's end.
			lo, hi := x, x
			switch rng.IntN(3) {
			case 0:
				lo = r.Lo + offset(uint64(x-r.Lo)+1)
			case 1:
				lo = math.MinInt64
			}
			switch rng.IntN(3) {
			case 0:
				hi = x + offset(uint64(r.Hi-x)+1)
			case 1:
				hi = math.MaxInt64
			}
			if s := quantizeSpan(r, record.Range{Lo: lo, Hi: hi}); s.count(keys) == 0 {
				t.Fatalf("region %v: key %d (sketch %d) inside [%d, %d] excluded by span %v over %v",
					r, x, sketchKey(r, x), lo, hi, s, keys)
			}
		}
	}
	if s := quantizeSpan(record.Range{Lo: 10, Hi: 20}, record.Range{Lo: 21, Hi: 30}); s.count([]uint16{0, 1, math.MaxUint16}) != 0 {
		t.Fatalf("a query beside the region meets its sketch (span %v)", s)
	}
}

// TestSketchOnDuplicateKeys runs the skip over the all-duplicate-keys tree:
// every split equals the one key, so every right region clamps to an empty
// range (Lo > Hi) and its sections hold nothing. The skipping stream must
// still match the published read on every stab, and its reads the whole
// prefix's under every fault profile.
func TestSketchOnDuplicateKeys(t *testing.T) {
	sim := testSim()
	rel := pagefile.NewItemFile(pagefile.NewMem(sim), record.Size)
	w := rel.NewWriter()
	buf := make([]byte, record.Size)
	for i := range 500 {
		rec := record.Record{Key: 42, Seq: uint64(i)}
		rec.Marshal(buf)
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tree, err := Create(pagefile.NewMem(sim), rel, Params{Height: 5, Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if r := tree.sketchRegion[3]; r.Lo <= r.Hi {
		t.Fatalf("the root's right region clamps to %v; the fixture wants it empty", r)
	}
	whole, err := wholeLeaves(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []record.Box{
		record.Box1D(42, 42), record.Box1D(41, 42), record.Box1D(42, 1<<40),
		record.Box1D(43, 1<<40), record.Box1D(math.MinInt64, 41), record.FullBox(1),
	} {
		_, _, got := checkSkipMatchesRead(t, tree, whole, q)
		checkSpanUnderFaults(t, tree, whole, q)
		if want := map[bool]int{true: 500, false: 0}[q.Dim(0).Lo <= 42 && 42 <= q.Dim(0).Hi]; len(got) != want {
			t.Fatalf("query %v: %d records, want %d", q, len(got), want)
		}
	}
}

// seededViewFixture is the seeded 200k-record view (default page size,
// one-page leaves) TestEmptyReadShare and TestStabMovesOnlyItsRange drain,
// built once over a counting positional backend.
var seededViewFixture struct {
	once sync.Once
	tree *Tree
	cb   *countingBackend
	err  error
}

func seededView(t *testing.T) (*Tree, *countingBackend) {
	t.Helper()
	fx := &seededViewFixture
	fx.once.Do(func() {
		sim := iosim.New(iosim.DefaultModel())
		rel, err := workload.GenerateRelation(sim, 200_000, workload.Uniform, 32)
		if err != nil {
			fx.err = err
			return
		}
		fx.cb = &countingBackend{}
		fx.tree, fx.err = Create(pagefile.NewOn(sim, fx.cb), rel, Params{Seed: 32, MemPages: 2048})
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return fx.tree, fx.cb
}

// TestStabMovesOnlyItsRange guards the range read's gain. Over the seeded
// 200k-record view it drains five predicates each of 0.25%, 2.5% and 25%,
// each for 1,000 samples or to its end (svsuite's 5,000-sample op over 1M
// records, scaled, so the classes weigh in as in scan-local's mix), and,
// beside every stab that reads, reads the same leaf's whole prefix 1..k on
// another clock. The stabs must ask the backend for at most 0.8× the bytes
// the whole-prefix reads ask for (this fixture reads 0.704×: 0.556× at 0.25%,
// 0.956× at 2.5%, 1.000× at 25%, where section 1 always holds a match), and
// no fetch may begin before the first section the stab needs (the header of
// a range starting at a page's first byte excepted).
func TestStabMovesOnlyItsRange(t *testing.T) {
	tree, cb := seededView(t)
	sim := tree.f.Sim()
	perPage := int64(tree.f.PageSize() / record.Size)
	qg := workload.NewQueryGen(35)
	var dec leafDecoder
	var moved, whole int64
	for _, sel := range []float64{0.0025, 0.025, 0.25} {
		var selMoved, selWhole int64
		for range 5 {
			q := qg.Range1D(sel)
			s, err := tree.WithClock(sim.Fork()).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			s.weighed = true // every read a stab's own; a drain pass fetches the same ranges
			prefix := tree.WithClock(sim.Fork())
			for s.Emitted() < 1000 {
				cb.reads = cb.reads[:0]
				if _, err := s.NextLeaf(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				leaf := s.path[tree.h] - tree.nLeaves
				m, k := &tree.leaves[leaf], s.reach(leaf)
				need, _ := s.need(leaf, k)
				var from int64 // the first needed section's first record
				for _, c := range m.secCounts[:min(bits.TrailingZeros32(need), tree.h)] {
					from += int64(c)
				}
				first, off := m.firstPage+from/perPage, 0
				if lo := from % perPage; lo > 0 {
					off = 8 + int(lo)*record.Size
				}
				for _, r := range cb.reads {
					if r.page < first || (r.page == first && r.off < off) {
						t.Fatalf("%v leaf %d: fetch %+v begins before the first needed section (record %d, page %d byte %d)",
							q, leaf, r, from, first, off)
					}
					selMoved += int64(r.bytes)
				}
				if need == 0 {
					continue
				}
				cb.reads = cb.reads[:0]
				if _, err := prefix.readLeafInto(leaf, &dec, 1<<k-1, &q); err != nil {
					t.Fatal(err)
				}
				for _, r := range cb.reads {
					selWhole += int64(r.bytes)
				}
			}
		}
		t.Logf("%g%%: stabs fetched %d bytes, whole-prefix reads %d (%.3f×)", 100*sel, selMoved, selWhole, float64(selMoved)/float64(selWhole))
		moved, whole = moved+selMoved, whole+selWhole
	}
	if ratio := float64(moved) / float64(whole); whole == 0 || ratio > 0.8 {
		t.Fatalf("stabs fetched %d bytes where whole-prefix reads fetch %d (%.3f×); the gate is 0.8×", moved, whole, ratio)
	}
}

// TestEmptyReadShare guards the sketch's gain. Over a seeded 200k-record
// view it drains 0.25% predicates and counts the stabs that read a leaf yet
// find no match in the sections 1..k they read: reads the skip should have
// saved. With tree format 3's 256-bucket occupancy bitmaps this was 30.3%
// (1,266 of 4,180 reads) on this fixture; the 16-bit sketch must keep it at
// or below 5%.
func TestEmptyReadShare(t *testing.T) {
	tree, _ := seededView(t)
	sim := tree.f.Sim()
	rng := rand.New(rand.NewPCG(32, 0x32))
	width := (tree.dataMax[0] - tree.dataMin[0]) / 400
	var reads, empty int64
	for range 20 {
		lo := tree.dataMin[0] + rng.Int64N(tree.dataMax[0]-tree.dataMin[0]-width)
		ck := sim.Fork()
		s, err := tree.WithClock(ck).Query(record.Box1D(lo, lo+width))
		if err != nil {
			t.Fatal(err)
		}
		s.weighed = true // the stabs' reads; a drain pass fetches the same leaves
		for {
			before := ck.Counters().Reads()
			if _, err := s.NextLeaf(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if ck.Counters().Reads() == before {
				continue // skipped
			}
			reads++
			matches := 0
			for _, sec := range s.dec.sections { // sigma_Q of sections 1..k, the rest empty
				matches += len(sec)
			}
			if matches == 0 {
				empty++
			}
		}
	}
	share := float64(empty) / float64(reads)
	t.Logf("h=%d: %d of %d leaf reads found no match (%.1f%%)", tree.h, empty, reads, 100*share)
	if reads == 0 || share > 0.05 {
		t.Fatalf("%d of %d leaf reads found no match; the sketch should keep that at or below 5%%", empty, reads)
	}
}
