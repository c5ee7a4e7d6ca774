// Package core implements the ACE Tree, the paper's primary contribution:
// a primary file organization for materialized sample views that supports
// online random sampling from arbitrary range predicates.
//
// # Structure
//
// An ACE Tree of height h is a complete binary tree with h levels. Levels
// 1..h-1 are internal nodes, each carrying a split key that halves its
// region (for multi-dimensional trees the split dimension alternates per
// level, k-d style) and the exact counts of database records falling left
// and right of the split. Level h consists of 2^(h-1) leaves. Every leaf
// stores h sections; section i of leaf L holds a uniform random subset of
// all database records falling in the region of L's level-i ancestor, so
// L.R1 is the whole domain and the regions halve at each level
// (exponentiality). Section membership is decided per record with an
// independent uniform draw over 1..h, and the leaf within the ancestor's
// subtree with an independent uniform draw, which yields the paper's
// combinability and appendability properties.
//
// # On-disk layout
//
// The tree lives in one page file:
//
//	page 0:            header (magic, count, height, dims, geometry)
//	split region:      per internal node: split key, left/right counts
//	directory region:  per leaf: first data page + per-section counts
//	leaf data region:  each leaf page-aligned, records grouped by section
//	summary region:    per leaf: one CRC32-C per section, then an occupancy
//	                   bitmap for each of the first occSections sections (the
//	                   directory's second half, see below)
//
// The split, directory and summary regions are small (tens to a few hundred
// bytes per node/leaf) and are read sequentially once at Open, mirroring the
// paper's packing of binary internal nodes into disk-page-sized units.
//
// Regions nest, so the sections a query can use from a leaf are always
// sections 1..k: a prefix of the leaf's bytes. The prefix checksum of
// section s is the CRC32-C of the payload of the page on which section s
// ends, from that page's first byte through the section's last record; with
// it a stab reads, verifies and decodes the usable prefix alone
// (readLeafInto) while the simulated disk is still charged the whole leaf.
// The occupancy bitmap of section s has bit b set when some record of the
// section has its dimension-0 key in bucket b of the section's region
// (clamped to the data bounds, cut into occBits equal buckets): a stab whose
// sections 1..k cannot hold a key of the query skips the leaf's I/O
// (Stream.combineTuples). The summaries sit after the leaf data rather than
// inside the directory entries so that every leaf stays on the page format
// 1 put it on: the fault plans of internal/iosim are keyed by physical page,
// and a shifted data region would meet a different fault schedule.
package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

const (
	// magic ends in the tree format version. Version 2 added the directory's
	// per-section prefix checksums, version 3 the occupancy bitmaps beside
	// them; an older file is refused (FormatError).
	magic      = uint64(0x5356414345545233) // "SVACETR3"
	magicStem  = magic &^ 0xff
	treeFormat = int(magic&0xff) - '0'

	// A leaf keeps an occBits-bucket occupancy bitmap for each of its first
	// occSections sections: 256 × 4 costs 128 bytes a leaf (4 pages of 64
	// KiB on a 1M-record view) and was chosen by measured skip rate
	// (DESIGN.md, "Occupancy bits").
	occBits     = 256
	occSections = 4
	occWords    = occBits / 64

	// MaxHeight bounds the tree height; 2^(MaxHeight-1) leaves is far more
	// than any laptop-scale relation needs.
	MaxHeight = 28

	splitEntrySize = 24 // split int64, cntL int64, cntR int64
)

// Params configures ACE Tree construction.
type Params struct {
	// Height is the tree height h (sections per leaf). 0 selects the
	// smallest height for which the expected leaf size does not exceed one
	// disk page, the sizing rule from Section V of the paper.
	Height int
	// Dims is the number of indexed dimensions (1 or 2). The default 0
	// means 1.
	Dims int
	// MemPages is the page budget for the external sorts (default 64).
	MemPages int
	// Seed drives the randomized section and leaf assignment.
	Seed uint64
	// Parallelism is the number of worker goroutines the construction
	// pipeline (sorted-run formation, tag assignment, leaf rendering) may
	// use; 0 or 1 builds sequentially. The built view file is byte-identical
	// for every value: randomness is pre-drawn in sequential order and work
	// is split at fixed boundaries, so only wall-clock time changes.
	Parallelism int
}

func (p *Params) setDefaults() {
	if p.Dims == 0 {
		p.Dims = 1
	}
	if p.MemPages == 0 {
		p.MemPages = 64
	}
}

func (p *Params) validate() error {
	if p.Dims < 1 || p.Dims > record.NumDims {
		return fmt.Errorf("core: dims must be 1..%d, got %d", record.NumDims, p.Dims)
	}
	if p.Height < 0 || p.Height > MaxHeight {
		return fmt.Errorf("core: height must be 0..%d, got %d", MaxHeight, p.Height)
	}
	if p.MemPages < 3 {
		return fmt.Errorf("core: memPages must be at least 3, got %d", p.MemPages)
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("core: parallelism must be non-negative, got %d", p.Parallelism)
	}
	return nil
}

// AutoHeight returns the height chosen for n records and the given page
// size: the smallest h with n*record.Size/2^(h-1) <= pageSize, at least 2
// (and 1 for relations that fit a single page).
func AutoHeight(n int64, pageSize int) int {
	h := 1
	for h < MaxHeight && n*record.Size > int64(pageSize)<<(h-1) {
		h++
	}
	return h
}

// leafMeta locates one leaf on disk.
type leafMeta struct {
	firstPage int64
	secCounts []int32 // per section, length h
	// secCRC[s] is the CRC32-C of the payload of the page on which section s
	// ends, through the section's last record (0 while sections 0..s hold no
	// record): what a prefix read ending with section s is verified against.
	secCRC []uint32
	// occ holds the occupancy bitmaps of sections 0..occSecs(h)-1, occWords
	// words each.
	occ []uint64
}

// newLeafMetas allocates the directory of an nLeaves-leaf tree of height h.
func newLeafMetas(nLeaves int64, h int) []leafMeta {
	leaves := make([]leafMeta, nLeaves)
	counts := make([]int32, nLeaves*int64(h))
	crcs := make([]uint32, nLeaves*int64(h))
	w := occSecs(h) * occWords
	occ := make([]uint64, nLeaves*int64(w))
	for i := range leaves {
		leaves[i].secCounts = counts[i*h : (i+1)*h : (i+1)*h]
		leaves[i].secCRC = crcs[i*h : (i+1)*h : (i+1)*h]
		leaves[i].occ = occ[i*w : (i+1)*w : (i+1)*w]
	}
	return leaves
}

// occSecs is how many sections of a height-h tree's leaves keep bitmaps.
func occSecs(h int) int { return min(h, occSections) }

func (m *leafMeta) totalRecords() int64 {
	var n int64
	for _, c := range m.secCounts {
		n += int64(c)
	}
	return n
}

// Tree is an open ACE Tree.
type Tree struct {
	f     *pagefile.File
	h     int
	dims  int
	count int64

	// splits, cntL, cntR are heap-indexed (root = 1) over the internal
	// nodes 1..nLeaves-1; index 0 is unused.
	splits     []int64
	cntL, cntR []int64

	leaves  []leafMeta // by leaf ordinal 0..nLeaves-1
	nLeaves int64

	// dataMin/dataMax bound the stored coordinates per dimension; they are
	// used to clamp edge regions when interpolating count estimates.
	dataMin, dataMax []int64
	// occRange[idx] is heap node idx's dimension-0 region clamped to the data
	// bounds, for the nodes whose sections keep occupancy bitmaps.
	occRange []record.Range

	// free holds the scratch objects closed streams handed back (see
	// Stream.Close); clocked views share their tree's list.
	free chan *scratch
}

// WithClock returns a view of the tree whose I/O is charged to the given
// per-stream clock instead of the shared simulated disk. The view shares
// all in-memory metadata (which is read-only after construction), so any
// number of clocked views may serve queries concurrently.
func (t *Tree) WithClock(c *iosim.Clock) *Tree {
	v := *t
	v.f = t.f.OnClock(c)
	return &v
}

// DataBounds returns the bounding box of the stored records. For an empty
// tree the box is empty.
func (t *Tree) DataBounds() record.Box {
	dims := make([]record.Range, t.dims)
	for d := 0; d < t.dims; d++ {
		dims[d] = record.Range{Lo: t.dataMin[d], Hi: t.dataMax[d]}
	}
	return record.NewBox(dims...)
}

// Height returns the tree height h (= sections per leaf).
func (t *Tree) Height() int { return t.h }

// Dims returns the number of indexed dimensions.
func (t *Tree) Dims() int { return t.dims }

// Count returns the number of records in the view.
func (t *Tree) Count() int64 { return t.count }

// NumLeaves returns the number of leaves, 2^(h-1).
func (t *Tree) NumLeaves() int64 { return t.nLeaves }

// DataPages returns the number of pages in the leaf data region.
func (t *Tree) DataPages() int64 { return t.sumStart() - t.leafDataStart() }

// MeanSectionSize returns the observed mean section size mu.
func (t *Tree) MeanSectionSize() float64 {
	return float64(t.count) / float64(int64(t.h)*t.nLeaves)
}

// splitDim returns the dimension split at the given level (1-based).
func (t *Tree) splitDim(level int) int { return (level - 1) % t.dims }

// levelOf returns the level of a heap index (root = level 1).
func levelOf(idx int64) int { return bits.Len64(uint64(idx)) }

// childBox returns the region of the child obtained by splitting box at
// the given level with the given split key.
func (t *Tree) childBox(box record.Box, level int, split int64, right bool) record.Box {
	d := t.splitDim(level)
	r := box.Dim(d)
	if right {
		return box.WithDim(d, record.Range{Lo: split + 1, Hi: r.Hi})
	}
	return box.WithDim(d, record.Range{Lo: r.Lo, Hi: split})
}

// nodeBox returns the region of the heap node idx by descending from the
// root. It is used by tests and the count estimator; queries compute boxes
// incrementally during their stabs.
func (t *Tree) nodeBox(idx int64) record.Box {
	box := record.FullBox(t.dims)
	level := levelOf(idx)
	for l := 1; l < level; l++ {
		ancestor := idx >> uint(level-l)
		right := (idx>>uint(level-l-1))&1 == 1
		box = t.childBox(box, l, t.splits[ancestor], right)
	}
	return box
}

// nodeCount returns the number of database records in the region of heap
// node idx (exact, from the construction-time counts).
func (t *Tree) nodeCount(idx int64) int64 {
	if idx == 1 {
		return t.count
	}
	parent := idx / 2
	if idx%2 == 0 {
		return t.cntL[parent]
	}
	return t.cntR[parent]
}

// geometry of the file regions.

func (t *Tree) nInternal() int64 { return t.nLeaves - 1 }

func (t *Tree) splitPages() int64 {
	perPage := int64(t.f.PageSize() / splitEntrySize) // entries never span pages
	return ceilDiv(t.nInternal(), perPage)
}

func (t *Tree) dirEntrySize() int64 { return 8 + 4*int64(t.h) }

func (t *Tree) dirPages() int64 {
	perPage := int64(t.f.PageSize()) / t.dirEntrySize()
	return ceilDiv(t.nLeaves, perPage)
}

func (t *Tree) splitStart() int64    { return 1 }
func (t *Tree) dirStart() int64      { return t.splitStart() + t.splitPages() }
func (t *Tree) leafDataStart() int64 { return t.dirStart() + t.dirPages() }

// The summary region is the file's last sumPages pages.
func (t *Tree) sumEntrySize() int { return 4*t.h + 8*occSecs(t.h)*occWords }

func (t *Tree) sumPages() int64 {
	return ceilDiv(t.nLeaves, int64(t.f.PageSize()/t.sumEntrySize()))
}

func (t *Tree) sumStart() int64 { return t.f.NumPages() - t.sumPages() }

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// Open opens an ACE Tree previously written by Create.
func Open(f *pagefile.File) (*Tree, error) {
	if f.NumPages() == 0 {
		return nil, fmt.Errorf("core: empty file")
	}
	page := make([]byte, f.PageSize())
	if err := f.Read(0, page); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint64(page[0:8]); m != magic {
		if m&^0xff == magicStem {
			return nil, &FormatError{Found: int(m&0xff) - '0', Wanted: treeFormat}
		}
		return nil, fmt.Errorf("core: bad magic")
	}
	t := &Tree{
		f:     f,
		free:  make(chan *scratch, maxFreeScratch),
		count: int64(binary.LittleEndian.Uint64(page[8:16])),
		h:     int(binary.LittleEndian.Uint64(page[16:24])),
		dims:  int(binary.LittleEndian.Uint64(page[24:32])),
	}
	if t.h < 1 || t.h > MaxHeight || t.dims < 1 || t.dims > record.NumDims {
		return nil, fmt.Errorf("core: corrupt header (h=%d dims=%d)", t.h, t.dims)
	}
	t.dataMin = make([]int64, t.dims)
	t.dataMax = make([]int64, t.dims)
	for d := 0; d < t.dims; d++ {
		t.dataMin[d] = int64(binary.LittleEndian.Uint64(page[32+16*d : 40+16*d]))
		t.dataMax[d] = int64(binary.LittleEndian.Uint64(page[40+16*d : 48+16*d]))
	}
	t.nLeaves = int64(1) << uint(t.h-1)
	if err := t.readSplitRegion(); err != nil {
		return nil, err
	}
	if t.sumStart() < t.leafDataStart() {
		return nil, fmt.Errorf("core: corrupt header (h=%d needs %d pages, file has %d)",
			t.h, t.leafDataStart()+t.sumPages(), f.NumPages())
	}
	if err := t.readDirRegion(); err != nil {
		return nil, err
	}
	if err := t.readSummaryRegion(); err != nil {
		return nil, err
	}
	t.initOccRanges()
	return t, nil
}

// initOccRanges fills occRange from the splits and data bounds.
func (t *Tree) initOccRanges() {
	t.occRange = make([]record.Range, 1<<occSecs(t.h))
	for idx := range t.occRange[1:] {
		r := t.nodeBox(int64(idx + 1)).Dim(0)
		t.occRange[idx+1] = record.Range{Lo: max(r.Lo, t.dataMin[0]), Hi: min(r.Hi, t.dataMax[0])}
	}
}

// occBucket is the occupancy bucket of key x (clamped into r) in region r.
func occBucket(r record.Range, x int64) int {
	x = max(min(x, r.Hi), r.Lo)
	hi, lo := bits.Mul64(uint64(x-r.Lo), occBits)
	if span := uint64(r.Hi-r.Lo) + 1; span != 0 {
		hi, _ = bits.Div64(hi, lo, span)
	}
	return int(hi)
}

func (t *Tree) writeHeader() error {
	page := make([]byte, t.f.PageSize())
	binary.LittleEndian.PutUint64(page[0:8], magic)
	binary.LittleEndian.PutUint64(page[8:16], uint64(t.count))
	binary.LittleEndian.PutUint64(page[16:24], uint64(t.h))
	binary.LittleEndian.PutUint64(page[24:32], uint64(t.dims))
	for d := 0; d < t.dims; d++ {
		binary.LittleEndian.PutUint64(page[32+16*d:40+16*d], uint64(t.dataMin[d]))
		binary.LittleEndian.PutUint64(page[40+16*d:48+16*d], uint64(t.dataMax[d]))
	}
	if t.f.NumPages() == 0 {
		_, err := t.f.Append(page)
		return err
	}
	return t.f.Write(0, page)
}

// regionWriter streams fixed-size entries into a pre-sized page region.
type regionWriter struct {
	f     *pagefile.File
	page  []byte
	pg    int64
	off   int
	limit int64 // last page of the region, exclusive
}

func (t *Tree) newRegionWriter(start, pages int64) *regionWriter {
	return &regionWriter{f: t.f, page: make([]byte, t.f.PageSize()), pg: start, limit: start + pages}
}

func (w *regionWriter) write(entry []byte) error {
	if w.off+len(entry) > len(w.page) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	copy(w.page[w.off:], entry)
	w.off += len(entry)
	return nil
}

func (w *regionWriter) flush() error {
	if w.pg >= w.limit {
		return fmt.Errorf("core: region overflow at page %d", w.pg)
	}
	if err := w.f.Write(w.pg, w.page); err != nil {
		return err
	}
	for i := range w.page {
		w.page[i] = 0
	}
	w.pg++
	w.off = 0
	return nil
}

func (w *regionWriter) close() error {
	if w.off > 0 {
		return w.flush()
	}
	return nil
}

// regionReader streams fixed-size entries out of a page region. Entries
// never span pages, matching regionWriter.
type regionReader struct {
	f      *pagefile.File
	page   []byte
	next   int64 // next page to load
	off    int
	loaded bool
}

func (t *Tree) newRegionReader(start int64) *regionReader {
	return &regionReader{f: t.f, page: make([]byte, t.f.PageSize()), next: start}
}

func (r *regionReader) read(n int) ([]byte, error) {
	if !r.loaded || r.off+n > len(r.page) {
		if err := r.f.Read(r.next, r.page); err != nil {
			return nil, err
		}
		r.next++
		r.off = 0
		r.loaded = true
	}
	b := r.page[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (t *Tree) writeSplitRegion() error {
	w := t.newRegionWriter(t.splitStart(), t.splitPages())
	entry := make([]byte, splitEntrySize)
	for i := int64(1); i < t.nLeaves; i++ {
		binary.LittleEndian.PutUint64(entry[0:8], uint64(t.splits[i]))
		binary.LittleEndian.PutUint64(entry[8:16], uint64(t.cntL[i]))
		binary.LittleEndian.PutUint64(entry[16:24], uint64(t.cntR[i]))
		if err := w.write(entry); err != nil {
			return err
		}
	}
	return w.close()
}

func (t *Tree) readSplitRegion() error {
	t.splits = make([]int64, t.nLeaves)
	t.cntL = make([]int64, t.nLeaves)
	t.cntR = make([]int64, t.nLeaves)
	r := t.newRegionReader(t.splitStart())
	for i := int64(1); i < t.nLeaves; i++ {
		b, err := r.read(splitEntrySize)
		if err != nil {
			return err
		}
		t.splits[i] = int64(binary.LittleEndian.Uint64(b[0:8]))
		t.cntL[i] = int64(binary.LittleEndian.Uint64(b[8:16]))
		t.cntR[i] = int64(binary.LittleEndian.Uint64(b[16:24]))
	}
	return nil
}

func (t *Tree) writeDirRegion() error {
	w := t.newRegionWriter(t.dirStart(), t.dirPages())
	entry := make([]byte, t.dirEntrySize())
	for i := int64(0); i < t.nLeaves; i++ {
		m := &t.leaves[i]
		binary.LittleEndian.PutUint64(entry[0:8], uint64(m.firstPage))
		for s := 0; s < t.h; s++ {
			binary.LittleEndian.PutUint32(entry[8+4*s:], uint32(m.secCounts[s]))
		}
		if err := w.write(entry); err != nil {
			return err
		}
	}
	return w.close()
}

func (t *Tree) readDirRegion() error {
	t.leaves = newLeafMetas(t.nLeaves, t.h)
	r := t.newRegionReader(t.dirStart())
	es := int(t.dirEntrySize())
	for i := int64(0); i < t.nLeaves; i++ {
		b, err := r.read(es)
		if err != nil {
			return err
		}
		m := &t.leaves[i]
		m.firstPage = int64(binary.LittleEndian.Uint64(b[0:8]))
		for s := 0; s < t.h; s++ {
			m.secCounts[s] = int32(binary.LittleEndian.Uint32(b[8+4*s:]))
		}
	}
	return nil
}

// writeSummaryRegion appends the summary region; the leaf data must be
// complete, since the region is located from the end of the file.
func (t *Tree) writeSummaryRegion() error {
	w := t.newRegionWriter(t.f.NumPages(), t.sumPages())
	entry := make([]byte, t.sumEntrySize())
	for i := range t.leaves {
		for s, crc := range t.leaves[i].secCRC {
			binary.LittleEndian.PutUint32(entry[4*s:], crc)
		}
		for j, word := range t.leaves[i].occ {
			binary.LittleEndian.PutUint64(entry[4*t.h+8*j:], word)
		}
		if err := w.write(entry); err != nil {
			return err
		}
	}
	return w.close()
}

func (t *Tree) readSummaryRegion() error {
	r := t.newRegionReader(t.sumStart())
	for i := range t.leaves {
		b, err := r.read(t.sumEntrySize())
		if err != nil {
			return err
		}
		for s := range t.leaves[i].secCRC {
			t.leaves[i].secCRC[s] = binary.LittleEndian.Uint32(b[4*s:])
		}
		for j := range t.leaves[i].occ {
			t.leaves[i].occ[j] = binary.LittleEndian.Uint64(b[4*t.h+8*j:])
		}
	}
	return nil
}

// sealPage is the one definition of a leaf's summary: given the payload of
// the leaf's page p (leaf-relative), it stores into crc[s] the checksum of
// every section s that ends on that page, chaining so each byte is hashed
// once, and sets in occ the bucket bit of every key the page holds for a
// section that keeps a bitmap. The builders call it with m.secCRC, m.occ on
// every page they write; fsck calls it on every page it reads and compares.
func (t *Tree) sealPage(leaf, p int64, payload []byte, crc []uint32, occ []uint64) {
	m := &t.leaves[leaf]
	perPage := int64(t.f.PageSize() / record.Size)
	lo, hi := p*perPage, (p+1)*perPage
	var start, end int64 // records in sections 0..s-1 and 0..s
	var sum uint32
	off := 0
	for s, c := range m.secCounts {
		start, end = end, end+int64(c)
		if s < len(m.occ)/occWords {
			r := t.occRange[(t.nLeaves+leaf)>>(t.h-1-s)]
			for i := max(start, lo); i < min(end, hi); i++ {
				b := occBucket(r, int64(binary.LittleEndian.Uint64(payload[(i-lo)*record.Size:])))
				occ[s*occWords+b/64] |= 1 << (b % 64)
			}
		}
		if end <= lo {
			continue
		}
		if end > hi {
			return
		}
		n := int(end-lo) * record.Size
		sum = pagefile.UpdateCRC(sum, payload[off:n])
		off = n
		crc[s] = sum
	}
}

// readLeaf reads leaf data from disk (first page random, the rest
// sequential) and returns the records of each section, in section order,
// freshly allocated: offline consumers (Verify, tests) may hold the result
// across further reads. It is the fsck read, readLeafInto without a
// predicate; the query hot path passes its own.
func (t *Tree) readLeaf(ordinal int64) ([][]record.Record, error) {
	d := leafDecoder{page: t.f.PageBuf()}
	defer t.f.PutPageBuf(d.page)
	return t.readLeafInto(ordinal, &d, t.h, nil)
}

// leafDecoder is the reusable arena one stream decodes leaves into. Every
// leaf of a stream lands in the same record slab, so the per-leaf
// allocations and per-record copies of the naive decode disappear; the
// returned sections alias the arena and are valid only until the next
// readLeafInto call with the same decoder. Reuse is safe for the query
// path because everything it keeps past a stab (emitted records, parked
// bucket batches) is copied out of the sections by value.
type leafDecoder struct {
	arena    []record.Record
	sections [][]record.Record
	// page is the buffer pages are read into when the backend cannot lend
	// its own frame: one page long, made on first use, owned with the decoder.
	page []byte
}

// readLeafInto reads sigma_Q of the first k sections of one leaf into d (the
// other sections come back empty): q is tested on the encoded records, and a
// record is decoded, once, only if it matches. The simulated disk is charged
// every page of the leaf, and every page meets its faults, whatever k and q
// are; what k decides is the bytes that really move: pages before the one
// the prefix ends on are read and verified whole, that page is read up to
// the prefix's last record and verified against the directory's prefix
// checksum, and the pages past it are charged without being fetched.
// Payloads are obtained zero-copy where the backend allows it.
//
// A nil q is the fsck read: every page is fetched and verified whole, every
// record of all h sections decoded, and the leaf's summary (prefix checksums,
// occupancy bits) is recomputed from those pages and compared.
func (t *Tree) readLeafInto(ordinal int64, d *leafDecoder, k int, q *record.Box) ([][]record.Record, error) {
	if ordinal < 0 || ordinal >= t.nLeaves {
		return nil, fmt.Errorf("core: leaf %d out of range [0,%d)", ordinal, t.nLeaves)
	}
	m := &t.leaves[ordinal]
	total := m.totalRecords()
	d.sections = resized(d.sections, t.h)
	sections := d.sections
	clear(sections)
	if total == 0 {
		return sections, nil
	}
	perPage := int64(t.f.PageSize() / record.Size)
	pages := ceilDiv(total, perPage)
	var use int64 // records in the first k sections
	for _, c := range m.secCounts[:k] {
		use += int64(c)
	}
	// last is the page the prefix ends on: -1 for an empty prefix, past the
	// leaf for fsck (every page is then "before" it, i.e. read whole).
	last := ceilDiv(use, perPage) - 1
	var resealed []uint32
	var reocc []uint64
	if q == nil {
		k, use, last = t.h, total, pages
		resealed, reocc = make([]uint32, t.h), make([]uint64, len(m.occ))
	}
	d.page = resized(d.page, t.f.PageSize())
	// The arena has room for the whole prefix, so it never moves under the
	// sections sliced out of it. Sections end where their counts say, pages
	// where perPage says: sec is the section being decoded, start its first
	// record in flat, left its records still to come.
	flat := resized(d.arena, int(use))[:0]
	sec, start, left := 0, 0, int64(m.secCounts[0])
	for p := int64(0); p < pages; p++ {
		n := min(perPage, use-p*perPage) // records of the prefix on this page
		var payload []byte
		var err error
		switch {
		case p < last:
			payload, err = t.f.ReadPayload(m.firstPage+p, d.page)
		case p == last:
			payload, err = t.f.ReadPrefix(m.firstPage+p, d.page, int(n)*record.Size, m.secCRC[k-1])
		default:
			n = 0
			_, err = t.f.ReadPrefix(m.firstPage+p, d.page, 0, 0)
		}
		if err != nil {
			return nil, err
		}
		if q == nil {
			t.sealPage(ordinal, p, payload, resealed, reocc)
		}
		for n > 0 {
			if left == 0 {
				sections[sec], start = flat[start:len(flat):len(flat)], len(flat)
				sec++
				left = int64(m.secCounts[sec])
				continue
			}
			c := int(min(n, left))
			if q == nil {
				flat = record.AppendBatch(flat, payload, c)
			} else {
				flat = record.AppendMatching(flat, payload, c, *q)
			}
			payload = payload[c*record.Size:]
			n -= int64(c)
			left -= int64(c)
		}
	}
	d.arena = flat
	for s, got := range resealed {
		if want := m.secCRC[s]; got != want {
			return nil, fmt.Errorf("core: leaf %d section %d: directory prefix checksum %08x, pages hash to %08x",
				ordinal, s+1, want, got)
		}
	}
	for j, got := range reocc {
		if want := m.occ[j]; got != want {
			return nil, fmt.Errorf("core: leaf %d section %d: directory occupancy word %d is %016x, keys set %016x",
				ordinal, j/occWords+1, j%occWords, want, got)
		}
	}
	for ; sec < k; sec++ {
		sections[sec], start = flat[start:len(flat):len(flat)], len(flat)
	}
	return sections, nil
}
