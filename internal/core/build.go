package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"

	"sampleview/internal/extsort"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

// Create bulk-builds an ACE Tree over the records of src into dst, which
// must be an empty page file. Construction follows the paper's two phases:
//
// Phase 1 sorts the data by key and extracts the median of every dyadic
// rank interval as the split key of the corresponding internal node (for
// multi-dimensional trees the medians alternate dimensions k-d style; see
// phase1KD for the substitution note).
//
// Phase 2 assigns each record an independent uniform section number in
// 1..h and a uniform leaf among the leaves below its level-s ancestor,
// then re-organizes the file with an external sort by (leaf, section).
// Exact left/right record counts for every internal node are accumulated
// during the assignment scan.
func Create(dst *pagefile.File, src *pagefile.ItemFile, p Params) (*Tree, error) {
	p.setDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if dst.NumPages() != 0 {
		return nil, fmt.Errorf("core: destination file is not empty")
	}
	if src.ItemSize() != record.Size {
		return nil, fmt.Errorf("core: source item size %d is not a record", src.ItemSize())
	}
	n := src.Count()
	h := p.Height
	if h == 0 {
		h = AutoHeight(n, dst.PageSize())
	}
	t := &Tree{
		f:       dst,
		free:    make(chan *scratch, maxFreeScratch),
		h:       h,
		dims:    p.Dims,
		count:   n,
		nLeaves: int64(1) << uint(h-1),
	}
	t.splits = make([]int64, t.nLeaves)
	t.cntL = make([]int64, t.nLeaves)
	t.cntR = make([]int64, t.nLeaves)
	t.dataMin = make([]int64, t.dims)
	t.dataMax = make([]int64, t.dims)
	for d := 0; d < t.dims; d++ {
		t.dataMin[d] = 1<<63 - 1
		t.dataMax[d] = -1 << 63
	}

	workers := p.Parallelism
	if workers < 1 {
		workers = 1
	}

	// Phase 1: split keys.
	var err error
	if t.dims == 1 {
		err = t.phase1External(src, p.MemPages, workers)
	} else {
		err = t.phase1KD(src)
	}
	if err != nil {
		return nil, fmt.Errorf("core: phase 1: %w", err)
	}

	// Phase 2a: tag every record with (leaf, section) and accumulate the
	// per-node counts.
	var tagged *pagefile.ItemFile
	if workers > 1 {
		tagged, err = t.assignTagsParallel(src, p.Seed, workers)
	} else {
		tagged, err = t.assignTags(src, p.Seed)
	}
	if err != nil {
		return nil, fmt.Errorf("core: phase 2 assignment: %w", err)
	}

	// Phase 2b: external sort by (leaf, section). Each temporary file is
	// closed as soon as its one reader is done with it: the heap holds the
	// copies of the relation a pass is using, not one per pass.
	sorted := pagefile.NewItemFile(pagefile.NewMem(dst.Sim()), taggedSize)
	defer sorted.File().Close()
	err = extsort.Sort(sorted, tagged, extsort.Key{}, p.MemPages, workers)
	tagged.File().Close()
	if err != nil {
		return nil, fmt.Errorf("core: phase 2 sort: %w", err)
	}

	if err := t.writeFile(sorted, workers); err != nil {
		return nil, err
	}
	return t, nil
}

// writeFile lays the tree out in its (empty) file: header, split region,
// directory, the leaf data rendered from the (leaf, section)-sorted tagged
// records, and the summary region. The directory's section counts and the
// data bounds are already known from tagging.
func (t *Tree) writeFile(sorted *pagefile.ItemFile, workers int) error {
	t.initOccRanges()
	if err := t.writeHeader(); err != nil {
		return err
	}
	if err := t.writeSplitRegion(); err != nil {
		return err
	}
	// Reserve the directory region with zero pages; it is rewritten once
	// the leaf layout is known.
	zero := make([]byte, t.f.PageSize())
	for i := int64(0); i < t.dirPages(); i++ {
		if _, err := t.f.Append(zero); err != nil {
			return err
		}
	}
	var err error
	if workers > 1 {
		err = t.writeLeafDataParallel(sorted, workers)
	} else {
		err = t.writeLeafData(sorted)
	}
	if err != nil {
		return err
	}
	if err := t.writeSummaryRegion(); err != nil {
		return err
	}
	if err := t.writeDirRegion(); err != nil {
		return err
	}
	return t.writeHeader()
}

const taggedSize = 8 + record.Size

// closeOnError releases a temporary file its maker is about to abandon.
func closeOnError(tmp *pagefile.ItemFile, err *error) {
	if *err != nil {
		tmp.File().Close()
	}
}

// tag packs (leaf ordinal, section index) so that ascending uint64 order
// is (leaf, section) order. section is 0-based here; it fits because
// MaxHeight < 256. The tag leads the tagged item, which is the zero
// extsort.Key.
func makeTag(leaf int64, section int) uint64 {
	return uint64(leaf)<<8 | uint64(section)
}

func splitTag(tag uint64) (leaf int64, section int) {
	return int64(tag >> 8), int(tag & 0xff)
}

// phase1External computes one-dimensional split keys with an external sort
// by key followed by a single sequential pass that picks the medians of
// every dyadic rank interval (Figure 7 of the paper).
func (t *Tree) phase1External(src *pagefile.ItemFile, memPages, workers int) error {
	if t.nLeaves == 1 {
		return nil // no internal nodes
	}
	sorted := pagefile.NewItemFile(pagefile.NewMem(t.f.Sim()), record.Size)
	defer sorted.File().Close()
	if err := extsort.Sort(sorted, src, extsort.Key{Signed: true}, memPages, workers); err != nil {
		return err
	}

	// Collect the rank every internal node needs, then grab all of them in
	// one sequential scan of the sorted file.
	type want struct {
		rank int64
		node int64
	}
	wants := make([]want, 0, t.nLeaves-1)
	var walk func(node, lo, hi int64)
	walk = func(node, lo, hi int64) {
		if node >= t.nLeaves {
			return
		}
		mid := lo + (hi-lo)/2
		wants = append(wants, want{rank: mid, node: node})
		walk(2*node, lo, mid)
		walk(2*node+1, mid, hi)
	}
	walk(1, 0, t.count)
	sort.Slice(wants, func(i, j int) bool { return wants[i].rank < wants[j].rank })

	r := sorted.NewReader()
	var rec record.Record
	var pos int64
	var have bool
	var key int64
	for _, w := range wants {
		for !have || pos <= w.rank {
			item, err := r.Next()
			if err == io.EOF {
				// Degenerate: more nodes than records. Reuse the last key
				// (or zero for an empty relation).
				break
			}
			if err != nil {
				return err
			}
			rec.Unmarshal(item)
			key = rec.Key
			pos++
			have = true
		}
		t.splits[w.node] = key
	}
	return nil
}

// phase1KD computes k-d split keys. The paper prescribes recursive
// external median-finding over alternating dimensions; at laptop scale the
// coordinate vectors (16 bytes per record) fit comfortably in memory, so
// this implementation charges one sequential scan to load the coordinates
// and then computes exact medians in memory with quickselect. The
// resulting tree is identical to the paper's; only the construction I/O
// pattern differs (documented in DESIGN.md).
func (t *Tree) phase1KD(src *pagefile.ItemFile) error {
	if t.nLeaves == 1 {
		return nil
	}
	n := t.count
	coords := make([][]int64, t.dims)
	for d := range coords {
		coords[d] = make([]int64, n)
	}
	r := src.NewReader()
	var rec record.Record
	for i := int64(0); i < n; i++ {
		item, err := r.Next()
		if err != nil {
			return err
		}
		rec.Unmarshal(item)
		for d := 0; d < t.dims; d++ {
			coords[d][i] = rec.Coord(d)
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	rng := rand.New(rand.NewPCG(0x5eed, 0xace))
	var rec2 func(node int64, level int, part []int32)
	rec2 = func(node int64, level int, part []int32) {
		if node >= t.nLeaves {
			return
		}
		c := coords[t.splitDim(level)]
		m := len(part) / 2
		if len(part) > 0 {
			quickselect(part, m, c, rng)
			t.splits[node] = c[part[m]]
		}
		rec2(2*node, level+1, part[:m])
		rec2(2*node+1, level+1, part[m:])
	}
	rec2(1, 1, idx)
	return nil
}

// quickselect partially sorts part so that part[k] holds the element with
// rank k by coordinate and everything before it is <= and after it is >=.
func quickselect(part []int32, k int, coord []int64, rng *rand.Rand) {
	lo, hi := 0, len(part)-1
	for lo < hi {
		p := coord[part[lo+rng.IntN(hi-lo+1)]]
		i, j := lo, hi
		for i <= j {
			for coord[part[i]] < p {
				i++
			}
			for coord[part[j]] > p {
				j--
			}
			if i <= j {
				part[i], part[j] = part[j], part[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// assignTags scans src, draws the section and leaf assignment for every
// record, accumulates the exact per-node left/right counts and the
// directory's per-section counts, and returns the tagged temporary file
// (Figure 9 of the paper).
func (t *Tree) assignTags(src *pagefile.ItemFile, seed uint64) (_ *pagefile.ItemFile, err error) {
	t.leaves = newLeafMetas(t.nLeaves, t.h)
	tagged := pagefile.NewItemFile(pagefile.NewMem(t.f.Sim()), taggedSize)
	defer closeOnError(tagged, &err)
	w := tagged.NewWriter()
	rng := rand.New(rand.NewPCG(seed, seed^0xace7ace7ace7ace7))
	buf := make([]byte, taggedSize)
	var rec record.Record
	r := src.NewReader()
	path := make([]int64, t.h+1) // path[level] = heap index of ancestor
	for {
		item, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rec.Unmarshal(item)
		for d := 0; d < t.dims; d++ {
			c := rec.Coord(d)
			if c < t.dataMin[d] {
				t.dataMin[d] = c
			}
			if c > t.dataMax[d] {
				t.dataMax[d] = c
			}
		}

		// Full descent: accumulate counts and remember the path.
		node := int64(1)
		path[1] = 1
		for level := 1; level < t.h; level++ {
			if rec.Coord(t.splitDim(level)) > t.splits[node] {
				t.cntR[node]++
				node = 2*node + 1
			} else {
				t.cntL[node]++
				node = 2 * node
			}
			path[level+1] = node
		}

		// Section draw (1-based level s), then a uniform leaf below the
		// level-s ancestor.
		s := 1 + rng.IntN(t.h)
		ancestor := path[s]
		leavesBelow := int64(1) << uint(t.h-s)
		firstLeaf := (ancestor - int64(1)<<uint(s-1)) * leavesBelow
		leaf := firstLeaf + rng.Int64N(leavesBelow)
		t.leaves[leaf].secCounts[s-1]++

		binary.LittleEndian.PutUint64(buf[:8], makeTag(leaf, s-1))
		copy(buf[8:], item)
		if err := w.Write(buf); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return tagged, nil
}

// writeLeafData streams the (leaf, section)-sorted records into the leaf
// data region, page-aligning each leaf, and fills in the rest of the
// directory metadata (the section counts come from tagging).
func (t *Tree) writeLeafData(sorted *pagefile.ItemFile) error {
	r := sorted.NewReader()

	perPage := t.f.PageSize() / record.Size
	page := make([]byte, t.f.PageSize())
	inPage := 0
	current := int64(-1)
	flushPage := func() error {
		if inPage == 0 {
			return nil
		}
		for i := inPage * record.Size; i < len(page); i++ {
			page[i] = 0
		}
		m := &t.leaves[current]
		t.sealPage(current, t.f.NumPages()-m.firstPage, page, m.secCRC, m.occ)
		if _, err := t.f.Append(page); err != nil {
			return err
		}
		inPage = 0
		return nil
	}

	for {
		item, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		leaf, _ := splitTag(binary.LittleEndian.Uint64(item[:8]))
		if leaf != current {
			if err := flushPage(); err != nil { // page-align the new leaf
				return err
			}
			current = leaf
			t.leaves[leaf].firstPage = t.f.NumPages()
		}
		copy(page[inPage*record.Size:], item[8:])
		inPage++
		if inPage == perPage {
			if err := flushPage(); err != nil {
				return err
			}
		}
	}
	if err := flushPage(); err != nil {
		return err
	}
	// Leaves that received no records point at the end of the file.
	for i := range t.leaves {
		if t.leaves[i].totalRecords() == 0 {
			t.leaves[i].firstPage = t.f.NumPages()
		}
	}
	return nil
}
