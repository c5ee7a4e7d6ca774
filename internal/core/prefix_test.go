package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// countingBackend is an in-memory positional backend (no zero-copy view,
// like an OS file read with pread) that records what every ReadPage moved.
type countingBackend struct {
	pages [][]byte
	reads []pageRead
}

type pageRead struct {
	page  int64
	bytes int
}

func (c *countingBackend) ReadPage(i int64, dst []byte) error {
	c.reads = append(c.reads, pageRead{i, len(dst)})
	copy(dst, c.pages[i])
	return nil
}

func (c *countingBackend) WritePage(i int64, src []byte) error {
	if i == int64(len(c.pages)) {
		c.pages = append(c.pages, nil)
	}
	c.pages[i] = append([]byte(nil), src...)
	return nil
}

func (c *countingBackend) NumPages() int64 { return int64(len(c.pages)) }
func (c *countingBackend) Close() error    { return nil }

// tinyPhys-byte pages hold 10 records, so modest leaves span several.
const tinyPhys = 1024

func tinySim() *iosim.Sim {
	return iosim.New(iosim.Model{
		RandomRead: 10 * time.Millisecond, SequentialRead: time.Millisecond,
		RandomWrite: 10 * time.Millisecond, SequentialWrite: time.Millisecond,
		PageSize: tinyPhys,
	})
}

// craftedTree writes a one-dimensional tree whose leaves hold exactly the
// given per-section record counts, through the builders' own file writer
// (sequential or parallel), over a counting backend.
func craftedTree(t *testing.T, counts [][]int32, workers int) (*Tree, *countingBackend) {
	t.Helper()
	sim := tinySim()
	cb := &countingBackend{}
	h := len(counts[0])
	tree := &Tree{f: pagefile.NewOn(sim, cb), h: h, dims: 1, nLeaves: int64(len(counts))}
	if tree.nLeaves != 1<<(h-1) {
		t.Fatalf("%d leaves do not make a tree of height %d", tree.nLeaves, h)
	}
	tree.splits = make([]int64, tree.nLeaves)
	tree.cntL = make([]int64, tree.nLeaves)
	tree.cntR = make([]int64, tree.nLeaves)
	tree.dataMin, tree.dataMax = []int64{0}, []int64{32 << 20}
	tree.leaves = newLeafMetas(tree.nLeaves, h)
	sorted := pagefile.NewItemFile(pagefile.NewMem(sim), taggedSize)
	w := sorted.NewWriter()
	item := make([]byte, taggedSize)
	for leaf := range counts {
		copy(tree.leaves[leaf].secCounts, counts[leaf])
		for sec, n := range counts[leaf] {
			for i := int32(0); i < n; i++ {
				tree.count++
				// Keys rise through each section (at most 32 records), so a key
				// range keeps a run from the middle of every long one.
				rec := record.Record{Key: int64(i)<<20 | int64(leaf)<<10 | int64(sec), Amount: tree.count, Seq: uint64(tree.count)}
				binary.LittleEndian.PutUint64(item[:8], makeTag(int64(leaf), sec))
				rec.Marshal(item[8:])
				if err := w.Write(item); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tree.writeFile(sorted, workers); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(tree.f)
	if err != nil {
		t.Fatal(err)
	}
	return reopened, cb
}

// prefixPredicates are the predicates the prefix read is checked under: one
// matching nothing, one matching everything, and one cutting the middle out
// of every dimension of the stored data, so that sections keep some records
// and drop others on both sides of a page end.
func prefixPredicates(tree *Tree) []*record.Box {
	nothing := record.FullBox(tree.dims).WithDim(0, record.Range{Lo: 1, Hi: 0})
	everything := record.FullBox(tree.dims)
	some := tree.DataBounds()
	for d := 0; d < tree.dims; d++ {
		r := some.Dim(d)
		w := (r.Hi - r.Lo) / 4
		some = some.WithDim(d, record.Range{Lo: r.Lo + w, Hi: r.Hi - w})
	}
	return []*record.Box{&nothing, &everything, &some}
}

// checkEveryPrefix is the contract of the prefix read, checked for every
// leaf, every k in 0..h and every predicate of prefixPredicates:
// readLeafInto(k, q) returns sigma_q of readLeaf()[:k], section by section;
// the clock is charged every page of the leaf whatever k and q are; and the
// bytes fetched are whole frames before the page the prefix ends on, header
// + prefix on it, and nothing after.
func checkEveryPrefix(t *testing.T, tree *Tree, cb *countingBackend) {
	t.Helper()
	perPage := int64(tree.f.PageSize() / record.Size)
	var dec leafDecoder
	preds := prefixPredicates(tree)
	kept, dropped := 0, 0
	for leaf := int64(0); leaf < tree.nLeaves; leaf++ {
		whole, err := tree.readLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		m := &tree.leaves[leaf]
		pages := ceilDiv(m.totalRecords(), perPage)
		var use int64
		for k := 0; k <= tree.h; k++ {
			if k > 0 {
				use += int64(m.secCounts[k-1])
			}
			for pi, q := range preds {
				ck := tree.f.Sim().Fork()
				cb.reads = cb.reads[:0]
				got, err := tree.WithClock(ck).readLeafInto(leaf, &dec, k, q)
				if err != nil {
					t.Fatalf("leaf %d k=%d predicate %d: %v", leaf, k, pi, err)
				}
				for s := range got {
					var want []record.Record
					if s < k {
						for _, rec := range whole[s] {
							if q.ContainsRecord(&rec) {
								want = append(want, rec)
							}
						}
						if pi == len(preds)-1 {
							kept += len(want)
							dropped += len(whole[s]) - len(want)
						}
					}
					if len(got[s]) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got[s], want)) {
						t.Fatalf("leaf %d k=%d predicate %d section %d: %d records, want %d (or contents differ)", leaf, k, pi, s+1, len(got[s]), len(want))
					}
				}
				if c := ck.Counters(); c.Reads() != pages || (pages > 0 && c.RandomReads != 1) {
					t.Fatalf("leaf %d k=%d predicate %d: charged %+v, want %d pages, first one random", leaf, k, pi, c, pages)
				}
				var want []pageRead
				for p := int64(0); p*perPage < use; p++ {
					if on := use - p*perPage; on > perPage {
						want = append(want, pageRead{m.firstPage + p, tinyPhys})
					} else {
						want = append(want, pageRead{m.firstPage + p, 8 + int(on)*record.Size})
					}
				}
				if fmt.Sprint(cb.reads) != fmt.Sprint(want) {
					t.Fatalf("leaf %d k=%d predicate %d (prefix %d records of %d): fetched %v, want %v", leaf, k, pi, use, m.totalRecords(), cb.reads, want)
				}
			}
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("the selective predicate kept %d records and dropped %d; it must do both", kept, dropped)
	}
}

// TestPrefixReadCraftedLeaves puts the prefix boundary everywhere it can
// fall: on the first, a middle and the last page of a multi-page leaf,
// exactly at a page end, before leading and after trailing empty sections,
// and in an empty leaf — under both builders, which must also agree on
// every checksum.
func TestPrefixReadCraftedLeaves(t *testing.T) {
	counts := [][]int32{
		{3, 4, 10, 15},  // boundary on page 0, 0, 1 and 3 (the last)
		{10, 10, 10, 0}, // every boundary exactly at a page end; trailing empty section
		{0, 0, 25, 0},   // leading empty sections, then a middle-page end
		{0, 0, 0, 0},    // empty leaf
		{20, 0, 0, 1},   // empty middle sections share their predecessor's boundary
		{1, 1, 1, 1},    // everything on one page
		{0, 30, 0, 7},   // page-end boundary in the middle of the leaf
		{9, 1, 9, 1},    // boundaries straddling page ends by one record
	}
	var crcs [][]uint32
	for _, workers := range []int{1, 3} {
		tree, cb := craftedTree(t, counts, workers)
		checkEveryPrefix(t, tree, cb)
		var all []uint32
		for i := range tree.leaves {
			all = append(all, tree.leaves[i].secCRC...)
		}
		crcs = append(crcs, all)
	}
	if !reflect.DeepEqual(crcs[0], crcs[1]) {
		t.Fatal("sequential and parallel builders sealed different prefix checksums")
	}
}

// TestPrefixReadBuiltTrees runs the same contract over trees Create built
// (both builders, one and two dimensions) with leaves of 3+ pages.
func TestPrefixReadBuiltTrees(t *testing.T) {
	for _, p := range []Params{
		{Height: 4, Seed: 3},
		{Height: 5, Seed: 4, Parallelism: 4},
		{Height: 4, Seed: 5, Dims: 2},
	} {
		sim := tinySim()
		rel, err := workload.GenerateRelation(sim, 700, workload.Uniform, p.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cb := &countingBackend{}
		tree, err := Create(pagefile.NewOn(sim, cb), rel, p)
		if err != nil {
			t.Fatal(err)
		}
		if st := tree.LeafStats(); st.MeanRecords < 30 {
			t.Fatalf("leaves average %.0f records; the test wants 3+ pages each", st.MeanRecords)
		}
		if err := tree.Verify(); err != nil {
			t.Fatal(err)
		}
		checkEveryPrefix(t, tree, cb)
	}
}

// queryNeeding returns a predicate whose stab to leaf uses exactly the
// first k sections: a point inside the leaf's level-k ancestor's region but
// outside its level-(k+1) ancestor's (any point of the leaf's own region
// for k = h).
func queryNeeding(t *testing.T, tree *Tree, leaf int64, k int) record.Box {
	t.Helper()
	heap := tree.nLeaves + leaf
	anc := heap >> uint(tree.h-k)
	if k < tree.h {
		anc = (heap >> uint(tree.h-k-1)) ^ 1 // the level-(k+1) sibling of the path
	}
	r := tree.nodeBox(anc).Dim(0)
	lo := max(r.Lo, tree.dataMin[0])
	if lo > min(r.Hi, tree.dataMax[0]) {
		t.Fatalf("leaf %d has no level-%d sibling region inside the data bounds", leaf, k+1)
	}
	return record.Box1D(lo, lo)
}

// TestStoredCorruptionIsLocalised rots one stored bit inside section s of a
// leaf. A stream that needs k <= s sections of that leaf never consumes the
// bit: it emits exactly what it emitted before and reports nothing. A stream
// that needs more gets *CorruptPageError and loses exactly that leaf. fsck
// (Verify and FsckPages) reports the damage either way.
func TestStoredCorruptionIsLocalised(t *testing.T) {
	sim := tinySim()
	rel, err := workload.GenerateRelation(sim, 2000, workload.Uniform, 9)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Create(pagefile.NewMem(sim), rel, Params{Height: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const leaf = 5
	m := &tree.leaves[leaf]
	perPage := int64(tree.f.PageSize() / record.Size)
	drain := func(q record.Box) ([]record.Record, []*DegradedError) {
		// A point predicate's stab would skip most leaves; every leaf is read
		// here, since what is checked is which bytes a read consumes.
		s, err := tree.QueryWithOptions(q, StreamOptions{ReadEveryLeaf: true})
		if err != nil {
			t.Fatal(err)
		}
		return drainWithRetry(t, s)
	}
	var before int64 // records in sections 0..s-1
	for s := 0; s < tree.h; s++ {
		if m.secCounts[s] == 0 {
			t.Fatalf("leaf %d section %d is empty; pick another fixture", leaf, s+1)
		}
		clean := make([][]record.Record, tree.h+1)
		for k := 1; k <= tree.h; k++ {
			clean[k], _ = drain(queryNeeding(t, tree, leaf, k))
		}
		// The first record of section s: page and bit of its first byte.
		page := m.firstPage + before/perPage
		bit := 8 * (8 + (before%perPage)*record.Size)
		if err := tree.f.CorruptStored(page, bit); err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= tree.h; k++ {
			got, deg := drain(queryNeeding(t, tree, leaf, k))
			if k <= s {
				if len(deg) != 0 || !reflect.DeepEqual(got, clean[k]) {
					t.Fatalf("bit in section %d: a stream using %d sections saw it (degraded %v, %d records vs %d)",
						s+1, k, deg, len(got), len(clean[k]))
				}
				continue
			}
			var cpe *pagefile.CorruptPageError
			if len(deg) != 1 || deg[0].Leaf != leaf || !errors.As(deg[0], &cpe) {
				t.Fatalf("bit in section %d: a stream using %d sections degraded %v, want exactly leaf %d with a CorruptPageError",
					s+1, k, deg, leaf)
			}
		}
		if err := tree.Verify(); !pagefile.IsCorrupt(err) {
			t.Fatalf("bit in section %d: Verify = %v, want the corrupt page", s+1, err)
		}
		if faults, err := tree.FsckPages(); err != nil || len(faults) != 1 || faults[0].Leaf != leaf {
			t.Fatalf("bit in section %d: FsckPages = %v, %v; want one fault in leaf %d", s+1, faults, err, leaf)
		}
		if err := tree.f.CorruptStored(page, bit); err != nil { // heal
			t.Fatal(err)
		}
		before += int64(m.secCounts[s])
	}
	if err := tree.Verify(); err != nil {
		t.Fatalf("healed tree: %v", err)
	}
}

// TestPrefixChecksumTableIsCovered: a rotted bit in the summary region is
// caught by the page checksum when Open loads the region, and a table that
// disagrees with intact leaf pages (the bug a page checksum cannot see) is
// named by Verify, leaf and section.
func TestPrefixChecksumTableIsCovered(t *testing.T) {
	sim := tinySim()
	tree, _ := buildTestTree(t, sim, 2000, Params{Height: 5, Seed: 2}, 2)
	bit := int64(8 * (8 + 3*tree.sumEntrySize() + 4*2)) // leaf 3's section-3 checksum
	if err := tree.f.CorruptStored(tree.sumStart(), bit); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tree.f); !pagefile.IsCorrupt(err) {
		t.Fatalf("Open over a rotted summary region = %v, want CorruptPageError", err)
	}
	if faults, err := tree.FsckPages(); err != nil || len(faults) != 1 || faults[0].Region != "summaries" {
		t.Fatalf("FsckPages = %v, %v; want one fault in the summaries region", faults, err)
	}
	if err := tree.f.CorruptStored(tree.sumStart(), bit); err != nil {
		t.Fatal(err)
	}

	tree.leaves[3].secCRC[2] ^= 0x10
	err := tree.Verify()
	if err == nil || !strings.Contains(err.Error(), "leaf 3 section 3") {
		t.Fatalf("Verify with a wrong table entry = %v, want it to name leaf 3 section 3", err)
	}
}

// TestOccupancyBitIsVerified clears one stored occupancy bit and re-seals
// its page, as a builder bug would leave it: no page checksum sees it, and a
// skipping stream whose predicate meets only that bucket drops the record
// that set it. Verify must name the leaf and section.
func TestOccupancyBitIsVerified(t *testing.T) {
	sim := tinySim()
	tree, _ := buildTestTree(t, sim, 2000, Params{Height: 5, Seed: 2}, 2)
	const leaf, sec = 6, 1 // 0-based section: the level-2 region
	sections, err := tree.readLeaf(leaf)
	if err != nil || len(sections[sec]) == 0 {
		t.Fatalf("leaf %d section %d: %v, %d records; pick another fixture", leaf, sec+1, err, len(sections[sec]))
	}
	x := sections[sec][0].Key
	b := occBucket(tree.occRange[(tree.nLeaves+leaf)>>(tree.h-1-sec)], x)
	perPage := int64(tree.f.PageSize() / tree.sumEntrySize())
	page := tree.sumStart() + leaf/perPage
	buf := make([]byte, tree.f.PageSize())
	if err := tree.f.Read(page, buf); err != nil {
		t.Fatal(err)
	}
	off := int(leaf%perPage)*tree.sumEntrySize() + 4*tree.h + 8*(sec*occWords+b/64)
	word := binary.LittleEndian.Uint64(buf[off:])
	binary.LittleEndian.PutUint64(buf[off:], word&^(1<<(b%64)))
	if err := tree.f.Write(page, buf); err != nil {
		t.Fatal(err)
	}
	bad, err := Open(tree.f)
	if err != nil {
		t.Fatalf("Open over a re-sealed summary page = %v", err)
	}
	q := record.Box1D(x, x)
	count := func(opts StreamOptions) int {
		s, err := bad.QueryWithOptions(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := s.AppendNext(nil, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}
	if read, skipped := count(StreamOptions{ReadEveryLeaf: true}), count(StreamOptions{}); skipped >= read {
		t.Fatalf("key %d: the skipping stream found %d records, reading every leaf %d; the cleared bit should hide one", x, skipped, read)
	}
	want := fmt.Sprintf("leaf %d section %d", leaf, sec+1)
	if err := bad.Verify(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Verify with a cleared occupancy bit = %v, want it to name %s", err, want)
	}
}

// TestFormat1Refused: a tree file of a previous format (1: no prefix
// checksums, 2: no occupancy bits) fails Open with a typed error saying what
// to do, not with "bad magic" and not by being read.
func TestFormat1Refused(t *testing.T) {
	sim := tinySim()
	tree, _ := buildTestTree(t, sim, 500, Params{}, 1)
	page := make([]byte, tree.f.PageSize())
	if err := tree.f.Read(0, page); err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	for _, old := range []int{1, 2} {
		copy(page, fmt.Sprintf("%dRTECAVS", old)) // little-endian "SVACETR<old>"
		if err := tree.f.Write(0, page); err != nil {
			t.Fatal(err)
		}
		_, err := Open(tree.f)
		if !errors.As(err, &fe) || fe.Found != old || fe.Wanted != 3 {
			t.Fatalf("Open of a format-%d tree = %v, want FormatError{%d, 3}", old, err, old)
		}
	}
	copy(page, "notatree")
	if err := tree.f.Write(0, page); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tree.f); err == nil || errors.As(err, &fe) {
		t.Fatalf("Open of a non-tree = %v, want a plain bad-magic error", err)
	}
}
