package core

import (
	"io"
	"math"
	"math/rand/v2"
	"slices"
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
			if s := quantizeSpan(r, record.Range{Lo: lo, Hi: hi}); !s.meets(keys) {
				t.Fatalf("region %v: key %d (sketch %d) inside [%d, %d] excluded by span %v over %v",
					r, x, sketchKey(r, x), lo, hi, s, keys)
			}
		}
	}
	if s := quantizeSpan(record.Range{Lo: 10, Hi: 20}, record.Range{Lo: 21, Hi: 30}); s.meets([]uint16{0, 1, math.MaxUint16}) {
		t.Fatalf("a query beside the region meets its sketch (span %v)", s)
	}
}

// TestSketchOnDuplicateKeys runs the skip over the all-duplicate-keys tree:
// every split equals the one key, so every right region clamps to an empty
// range (Lo > Hi) and its sections hold nothing. The skipping stream must
// still match the published read on every stab.
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
	for _, q := range []record.Box{
		record.Box1D(42, 42), record.Box1D(41, 42), record.Box1D(42, 1<<40),
		record.Box1D(43, 1<<40), record.Box1D(math.MinInt64, 41), record.FullBox(1),
	} {
		_, _, got := checkSkipMatchesRead(t, tree, q)
		if want := map[bool]int{true: 500, false: 0}[q.Dim(0).Lo <= 42 && 42 <= q.Dim(0).Hi]; len(got) != want {
			t.Fatalf("query %v: %d records, want %d", q, len(got), want)
		}
	}
}

// TestEmptyReadShare guards the sketch's gain. Over a seeded 200k-record
// view it drains 0.25% predicates and counts the stabs that read a leaf yet
// find no match in the sections 1..k they read: reads the skip should have
// saved. With tree format 3's 256-bucket occupancy bitmaps this was 30.3%
// (1,266 of 4,180 reads) on this fixture; the 16-bit sketch must keep it at
// or below 5%.
func TestEmptyReadShare(t *testing.T) {
	sim := iosim.New(iosim.DefaultModel())
	rel, err := workload.GenerateRelation(sim, 200_000, workload.Uniform, 32)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Create(pagefile.NewMem(sim), rel, Params{Seed: 32, MemPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
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
