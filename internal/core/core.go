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
//	summary region:    per leaf: one CRC32-C per section, then the key sketch
//	                   of the first sketchSections sections (the directory's
//	                   second half, see below), entries packed across pages
//
// The split, directory and summary regions are small (tens to a few hundred
// bytes per node/leaf) and are read sequentially once at Open, mirroring the
// paper's packing of binary internal nodes into disk-page-sized units.
//
// Regions nest, so the sections a query can use from a leaf are always
// sections 1..k. The key sketch of section s is the sorted list of its
// records' dimension-0 keys, each quantized to 16 bits within the section's
// region (clamped to the data bounds, cut into 2^16 equal buckets), one
// uint16 per record; it rules out the sections of 1..k with no key in the
// query's quantized range (Stream.need). The prefix checksum of section s is
// the CRC32-C of the payload of the page on which s ends, from that page's
// first byte through s's last record: a chain, with which a stab reads,
// verifies and decodes only the bytes from the first section left to the
// last (readLeafInto), or skips the leaf's I/O when none is left, while the
// simulated disk is still charged the whole leaf. The summaries sit after
// the leaf data rather than inside the directory entries so that every leaf
// stays on the page format 1 put it on: the fault plans of internal/iosim
// are keyed by physical page, and a shifted data region would meet a
// different fault schedule.
package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

const (
	// magic ends in the tree format version. Version 2 added the directory's
	// per-section prefix checksums, version 3 occupancy bitmaps beside them,
	// version 4 the key sketches that replaced the bitmaps; an older file is
	// refused (FormatError).
	magic      = uint64(0x5356414345545234) // "SVACETR4"
	magicStem  = magic &^ 0xff
	treeFormat = int(magic&0xff) - '0'

	// A leaf keeps a key sketch, 2 bytes a record, for each of its first
	// sketchSections sections: about 667 KB on a 1M-record view, where the
	// bitmaps it replaced took 262 KB. Its 16-bit width was chosen by
	// measured skip rate (DESIGN.md, "Key sketch").
	sketchSections = 4

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
	// use; 0 counts as 1. The built view file and its simulated cost are the
	// same for every value: randomness is pre-drawn in record order and work
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
	// sketch holds the key sketches of sections 0..min(h, sketchSections)-1 in
	// section order, each as long as its section's count (initSketch).
	sketch []uint16
}

// newLeafMetas allocates the directory of an nLeaves-leaf tree of height h.
func newLeafMetas(nLeaves int64, h int) []leafMeta {
	leaves := make([]leafMeta, nLeaves)
	counts := make([]int32, nLeaves*int64(h))
	crcs := make([]uint32, nLeaves*int64(h))
	for i := range leaves {
		leaves[i].secCounts = counts[i*h : (i+1)*h : (i+1)*h]
		leaves[i].secCRC = crcs[i*h : (i+1)*h : (i+1)*h]
	}
	return leaves
}

// sketchLen is the number of keys in the leaf's sketch.
func (m *leafMeta) sketchLen() int64 {
	var n int64
	for _, c := range m.secCounts[:min(len(m.secCounts), sketchSections)] {
		n += int64(c)
	}
	return n
}

// sketchKeys is the number of keys in every leaf's sketch.
func (t *Tree) sketchKeys() int64 {
	var n int64
	for i := range t.leaves {
		n += t.leaves[i].sketchLen()
	}
	return n
}

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
	// sketchRegion[idx] is heap node idx's dimension-0 region clamped to the
	// data bounds, for the nodes whose sections keep key sketches.
	sketchRegion []record.Range

	// free holds the scratch objects, with their parking chunks, that closed
	// streams handed back (see Stream.Close); clocked views share it.
	free chan *scratch

	// scanTime is what one sequential pass over the leaf data region costs
	// on the tree's disk model, which no drain pass exceeds: at z times half
	// of it in stab charges a stream lists the leaves its pass would finish
	// (Stream.list).
	scanTime time.Duration
}

// WithClock returns a view of the tree whose I/O is charged to the given
// per-stream clock instead of the simulated disk's shared clock. The view
// shares all in-memory metadata (which is read-only after construction), so
// any number of clocked views may serve queries concurrently.
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

// File returns the page file the tree is stored in.
func (t *Tree) File() *pagefile.File { return t.f }

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

// ancestor returns the heap index of leaf's ancestor at level sec+1, whose
// region section sec+1 of the leaf samples.
func (t *Tree) ancestor(leaf int64, sec int) int64 { return (t.nLeaves + leaf) >> (t.h - 1 - sec) }

// leafEnd returns the page after the last of leaf m.
func (t *Tree) leafEnd(m *leafMeta) int64 {
	return m.firstPage + ceilDiv(m.totalRecords(), int64(t.f.PageSize()/record.Size))
}

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

// The summary region is the file's last sumPages pages: every leaf's h
// prefix checksums and its sketch, packed.
func (t *Tree) sumPages() int64 {
	return ceilDiv(t.nLeaves*4*int64(t.h)+2*t.sketchKeys(), int64(t.f.PageSize()))
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
	if t.leafDataStart() > f.NumPages() {
		return nil, fmt.Errorf("core: corrupt header (h=%d needs %d pages, file has %d)",
			t.h, t.leafDataStart(), f.NumPages())
	}
	if err := t.readSplitRegion(); err != nil {
		return nil, err
	}
	if err := t.readDirRegion(); err != nil {
		return nil, err
	}
	if t.sumStart() < t.leafDataStart() {
		return nil, fmt.Errorf("core: corrupt directory (h=%d needs %d pages, file has %d)",
			t.h, t.leafDataStart()+t.sumPages(), f.NumPages())
	}
	t.initSketch()
	if err := t.readSummaryRegion(); err != nil {
		return nil, err
	}
	t.scanTime = f.Sim().ScanCost(t.DataPages())
	return t, nil
}

// initSketch fills sketchRegion from the splits and data bounds and sizes
// every leaf's sketch from its section counts.
func (t *Tree) initSketch() {
	t.sketchRegion = make([]record.Range, 1<<min(t.h, sketchSections))
	for idx := range t.sketchRegion[1:] {
		r := t.nodeBox(int64(idx + 1)).Dim(0)
		t.sketchRegion[idx+1] = record.Range{Lo: max(r.Lo, t.dataMin[0]), Hi: min(r.Hi, t.dataMax[0])}
	}
	keys := make([]uint16, t.sketchKeys())
	for i := range t.leaves {
		n := t.leaves[i].sketchLen()
		t.leaves[i].sketch, keys = keys[:n:n], keys[n:]
	}
}

// sketchKey is key x (clamped into r) quantized to 16 bits within region r:
// ⌊(x − r.Lo)·2¹⁶ / (r.Hi − r.Lo + 1)⌋, monotone in x.
func sketchKey(r record.Range, x int64) uint16 {
	x = max(min(x, r.Hi), r.Lo)
	hi, lo := bits.Mul64(uint64(x-r.Lo), 1<<16)
	if span := uint64(r.Hi-r.Lo) + 1; span != 0 {
		hi, _ = bits.Div64(hi, lo, span)
	}
	return uint16(hi)
}

// keySpan is a query's dimension-0 range quantized into one node's sketch
// region; lo > hi when the query meets none of the region's keys.
type keySpan struct{ lo, hi uint16 }

// quantizeSpan is the span of sketch values a key of region r inside q can
// have. Quantizing is monotone, so no such key falls outside it.
func quantizeSpan(r, q record.Range) keySpan {
	lo, hi := max(r.Lo, q.Lo), min(r.Hi, q.Hi)
	if lo > hi {
		return keySpan{1, 0}
	}
	return keySpan{sketchKey(r, lo), sketchKey(r, hi)}
}

// count returns how many of the sorted sketch keys lie inside s.
func (s keySpan) count(keys []uint16) int {
	i, _ := slices.BinarySearch(keys, s.lo)
	n := i
	for n < len(keys) && keys[n] <= s.hi {
		n++
	}
	return n - i
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

// entry returns entry i, n bytes long, of a region whose pages each hold
// PageSize/n entries and never split one.
func (t *Tree) entry(region []byte, i int64, n int) []byte {
	ps, per := int64(t.f.PageSize()), int64(t.f.PageSize()/n)
	off := i/per*ps + i%per*int64(n)
	return region[off : off+int64(n)]
}

// writeRegion writes region, whole pages, from page start on.
func (t *Tree) writeRegion(start int64, region []byte) error {
	ps := int64(t.f.PageSize())
	for p := int64(0); p*ps < int64(len(region)); p++ {
		if err := t.f.Write(start+p, region[p*ps:][:ps]); err != nil {
			return err
		}
	}
	return nil
}

// readRegion reads the pages pages from page start on.
func (t *Tree) readRegion(start, pages int64) ([]byte, error) {
	ps := int64(t.f.PageSize())
	region := make([]byte, pages*ps)
	for p := int64(0); p < pages; p++ {
		if err := t.f.Read(start+p, region[p*ps:][:ps]); err != nil {
			return nil, err
		}
	}
	return region, nil
}

func (t *Tree) writeSplitRegion() error {
	region := make([]byte, t.splitPages()*int64(t.f.PageSize()))
	for i := int64(1); i < t.nLeaves; i++ {
		e := t.entry(region, i-1, splitEntrySize)
		binary.LittleEndian.PutUint64(e[0:8], uint64(t.splits[i]))
		binary.LittleEndian.PutUint64(e[8:16], uint64(t.cntL[i]))
		binary.LittleEndian.PutUint64(e[16:24], uint64(t.cntR[i]))
	}
	return t.writeRegion(t.splitStart(), region)
}

func (t *Tree) readSplitRegion() error {
	region, err := t.readRegion(t.splitStart(), t.splitPages())
	if err != nil {
		return err
	}
	t.splits, t.cntL, t.cntR = make([]int64, t.nLeaves), make([]int64, t.nLeaves), make([]int64, t.nLeaves)
	for i := int64(1); i < t.nLeaves; i++ {
		e := t.entry(region, i-1, splitEntrySize)
		t.splits[i] = int64(binary.LittleEndian.Uint64(e[0:8]))
		t.cntL[i] = int64(binary.LittleEndian.Uint64(e[8:16]))
		t.cntR[i] = int64(binary.LittleEndian.Uint64(e[16:24]))
	}
	return nil
}

func (t *Tree) writeDirRegion() error {
	region := make([]byte, t.dirPages()*int64(t.f.PageSize()))
	for i := range t.leaves {
		e := t.entry(region, int64(i), int(t.dirEntrySize()))
		binary.LittleEndian.PutUint64(e[0:8], uint64(t.leaves[i].firstPage))
		for s, c := range t.leaves[i].secCounts {
			binary.LittleEndian.PutUint32(e[8+4*s:], uint32(c))
		}
	}
	return t.writeRegion(t.dirStart(), region)
}

func (t *Tree) readDirRegion() error {
	region, err := t.readRegion(t.dirStart(), t.dirPages())
	if err != nil {
		return err
	}
	t.leaves = newLeafMetas(t.nLeaves, t.h)
	for i := range t.leaves {
		e, m := t.entry(region, int64(i), int(t.dirEntrySize())), &t.leaves[i]
		m.firstPage = int64(binary.LittleEndian.Uint64(e[0:8]))
		for s := range m.secCounts {
			if m.secCounts[s] = int32(binary.LittleEndian.Uint32(e[8+4*s:])); m.secCounts[s] < 0 {
				return fmt.Errorf("core: corrupt directory (leaf %d section %d counts %d records)", i, s+1, m.secCounts[s])
			}
		}
	}
	return nil
}

// writeSummaryRegion appends the summary region; the leaf data must be
// complete, since the region is located from the end of the file. Entries
// vary in length, so they are packed across page ends.
func (t *Tree) writeSummaryRegion() error {
	region := make([]byte, 0, t.sumPages()*int64(t.f.PageSize()))
	for i := range t.leaves {
		for _, crc := range t.leaves[i].secCRC {
			region = binary.LittleEndian.AppendUint32(region, crc)
		}
		for _, key := range t.leaves[i].sketch {
			region = binary.LittleEndian.AppendUint16(region, key)
		}
	}
	return t.writeRegion(t.f.NumPages(), region[:cap(region)])
}

func (t *Tree) readSummaryRegion() error {
	region, err := t.readRegion(t.sumStart(), t.sumPages())
	if err != nil {
		return err
	}
	for i := range t.leaves {
		m := &t.leaves[i]
		for s := range m.secCRC {
			m.secCRC[s] = binary.LittleEndian.Uint32(region)
			region = region[4:]
		}
		for j := range m.sketch {
			m.sketch[j] = binary.LittleEndian.Uint16(region)
			region = region[2:]
		}
	}
	return nil
}

// sealPage is the one definition of a leaf's summary: given the payload of
// the leaf's page p (leaf-relative), it stores into crc[s] the checksum of
// every section s that ends on that page, chaining so each byte is hashed
// once, and into sketch the quantized key of every record the page holds
// for a section that keeps a sketch, sorting the section's run once its last
// page is sealed. The builders call it with m.secCRC, m.sketch on every page
// they write, in page order; fsck calls it on every page it reads and
// compares.
func (t *Tree) sealPage(leaf, p int64, payload []byte, crc []uint32, sketch []uint16) {
	m := &t.leaves[leaf]
	perPage := int64(t.f.PageSize() / record.Size)
	lo, hi := p*perPage, (p+1)*perPage
	var start, end int64 // records in sections 0..s-1 and 0..s
	var sum uint32
	off := 0
	for s, c := range m.secCounts {
		start, end = end, end+int64(c)
		sketched := s < sketchSections
		if sketched {
			r := t.sketchRegion[(t.nLeaves+leaf)>>(t.h-1-s)]
			for i := max(start, lo); i < min(end, hi); i++ {
				sketch[i] = sketchKey(r, int64(binary.LittleEndian.Uint64(payload[(i-lo)*record.Size:])))
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
		if sketched {
			slices.Sort(sketch[start:end])
		}
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
	return t.readLeafInto(ordinal, &d, 1<<t.h-1, nil)
}

// leafDecoder is the reusable arena one stream decodes leaves into. Every
// leaf of a stream lands in the same record slab, so the per-leaf
// allocations and per-record copies of the naive decode disappear; the
// returned sections alias the arena and are valid only until the next
// readLeafInto call with the same decoder. Reuse is safe for the query
// path because everything it keeps past a stab (emitted records, parked
// batches) is copied out of the sections by value.
type leafDecoder struct {
	arena    []record.Record
	sections [][]record.Record
	// page is the buffer pages are read into when the backend cannot lend
	// its own frame: one page long, made on first use, owned with the decoder.
	page []byte
}

// readLeafInto reads sigma_Q of the sections of one leaf that need names
// (bit s for section s+1) into d, decoding a record, once, only if q matches
// it encoded; the other sections come back empty. Every page of the leaf is
// charged and meets its faults whatever need and q are; what moves is the
// range from need's first section to its last. Pages outside it are only
// charged, the page it ends on is read from the range's first byte there and
// verified against the last section's prefix checksum (continuing the chain
// of the section before when the range starts mid-page), and its other pages
// are read and verified whole. Sections in the range that need leaves out
// are not filtered. Payloads are zero-copy where the backend allows it.
//
// A nil q (need naming all h sections) is the fsck read: every page fetched
// and verified whole, every record decoded, the summary recomputed and compared.
func (t *Tree) readLeafInto(ordinal int64, d *leafDecoder, need uint32, q *record.Box) ([][]record.Record, error) {
	if ordinal < 0 || ordinal >= t.nLeaves {
		return nil, fmt.Errorf("core: leaf %d out of range [0,%d)", ordinal, t.nLeaves)
	}
	m := &t.leaves[ordinal]
	total := m.totalRecords()
	sections := resized(d.sections, t.h)
	d.sections = sections
	clear(sections)
	perPage := int64(t.f.PageSize() / record.Size)
	pages := ceilDiv(total, perPage)
	// The range is sections a..b-1 (a clamped to a section when need is
	// empty), records [from, to) of the leaf, ending on page last.
	a, b := min(bits.TrailingZeros32(need), t.h-1), bits.Len32(need)
	var from, to int64
	for s, c := range m.secCounts[:b] {
		if s < a {
			from += int64(c)
		}
		to += int64(c)
	}
	last := ceilDiv(to, perPage) - 1
	var resealed []uint32
	var resketch []uint16
	if q == nil {
		last = pages // every page is one before the last: read whole
		resealed, resketch = make([]uint32, t.h), make([]uint16, len(m.sketch))
	}
	d.page = resized(d.page, t.f.PageSize())
	// The arena has room for the whole range, so it never moves under the
	// sections sliced out of it. Sections end where their counts say, pages
	// where perPage says: sec is the section being decoded, start its first
	// record in flat, left its records still to come.
	flat := resized(d.arena, int(to-from))[:0]
	sec, start, left := a, 0, int64(m.secCounts[a])
	for p := int64(0); p < pages; p++ {
		// The range's records on this page, counted from the page's first.
		lo, hi := max(from-p*perPage, 0), min(to-p*perPage, perPage)
		var payload []byte
		var err error
		switch {
		case lo >= hi: // no record of the range here: charged, not fetched
			lo, hi = 0, 0
			_, err = t.f.ReadPrefix(m.firstPage+p, d.page, 0, 0, 0, 0)
		case p < last:
			payload, err = t.f.ReadPayload(m.firstPage+p, d.page)
		default:
			var seed uint32
			if lo > 0 {
				seed = m.secCRC[a-1]
			}
			payload, err = t.f.ReadPrefix(m.firstPage+p, d.page, int(lo)*record.Size, int(hi-lo)*record.Size, seed, m.secCRC[b-1])
			hi, lo = hi-lo, 0 // the payload starts at the range's first record
		}
		if err != nil {
			return nil, err
		}
		if q == nil {
			t.sealPage(ordinal, p, payload, resealed, resketch)
		}
		payload = payload[lo*record.Size:]
		for n := hi - lo; n > 0; {
			if left == 0 {
				sections[sec], start = flat[start:len(flat):len(flat)], len(flat)
				sec++
				left = int64(m.secCounts[sec])
				continue
			}
			c := int(min(n, left))
			switch {
			case q == nil:
				flat = record.AppendBatch(flat, payload, c)
			case need>>sec&1 != 0:
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
	for s, at := 0, 0; at < len(resketch); s++ {
		n := at + int(m.secCounts[s])
		if !slices.Equal(resketch[at:n], m.sketch[at:n]) {
			return nil, fmt.Errorf("core: leaf %d section %d: stored key sketch differs from the keys on its pages", ordinal, s+1)
		}
		at = n
	}
	for ; sec < b; sec++ {
		sections[sec], start = flat[start:len(flat):len(flat)], len(flat)
	}
	return sections, nil
}
