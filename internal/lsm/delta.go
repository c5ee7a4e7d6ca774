// Package lsm implements the on-disk half of the live write path: leveled
// differential files beside a base ACE view. Sealed memview snapshots are
// flushed to level-0 delta files; size-tiered background compaction merges
// levels; a final fold rebuilds the base view over the union. Every file is
// a pagefile (v2, per-page checksums) on the view's simulated disk, so
// flushes, merges and folds charge I/O like every other path and inherit
// the fault-injection and degradation contracts.
//
// Each delta file holds one immutable level:
//
//	page 0:            header (magic, layout version, generation, region directory, bounds)
//	bloom region:      filter bits over the level's tombstone Seqs
//	insert region:     ItemFile of live inserted records, sorted by (Key, Seq)
//	tombstone region:  ItemFile of tombstone records, sorted by Seq
//	fence region:      the first Key of every insert page
//
// Tombstones carry the full deleted record, not just its Seq, so query
// planning can bound which key region a level's deletes affect. The
// header's per-dimension bounds let queries skip levels disjoint from the
// predicate; the fences (loaded in memory when the level is opened, as the
// bloom filter is) narrow an overlapping level's read to the insert pages
// the predicate's key range covers; and the bloom filter prunes per-draw
// tombstone probes down to the rare positive. The insert order is free to
// choose because every stream shuffles each level's matches at open: the
// on-disk order only fixes which permutation a seed maps to.
package lsm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

// deltaMagic identifies a delta-level file.
const deltaMagic = "SVDELTA1"

// deltaLayout is the layout version this package writes and the only one it
// reads: version 1 sorted inserts by Seq and had no fence region.
const deltaLayout = 2

// headerSize is the number of meaningful bytes in the header page.
const headerSize = 8 + 4 + 4 + 8 + 8*8 + record.NumDims*32

// DeltaLayoutError reports a delta file written under a layout version this
// package does not read.
type DeltaLayoutError struct {
	Path    string
	Version uint32
}

func (e *DeltaLayoutError) Error() string {
	return fmt.Sprintf("lsm: %s has delta layout version %d, want %d", e.Path, e.Version, deltaLayout)
}

// dimBounds is a closed per-dimension bounding box over records; Lo > Hi
// means empty.
type dimBounds [record.NumDims][2]int64

func emptyBounds() dimBounds {
	var b dimBounds
	for d := range b {
		b[d][0], b[d][1] = 1<<63-1, -1<<63
	}
	return b
}

func (b *dimBounds) extend(rec *record.Record) {
	for d := 0; d < record.NumDims; d++ {
		c := rec.Coord(d)
		if c < b[d][0] {
			b[d][0] = c
		}
		if c > b[d][1] {
			b[d][1] = c
		}
	}
}

// overlaps reports whether any record inside the bounds could match q.
func (b *dimBounds) overlaps(q record.Box) bool {
	for d := 0; d < q.Dims() && d < record.NumDims; d++ {
		if b[d][0] > b[d][1] {
			return false // empty bounds
		}
		r := q.Dim(d)
		if r.Lo > b[d][1] || r.Hi < b[d][0] {
			return false
		}
	}
	return true
}

// overlapFraction estimates what fraction of uniformly spread points inside
// the bounds fall in q: the same crude interpolation the ACE tree's
// internal counts use, good enough for interleaving estimates (drift is
// tolerated by the merge loop).
func (b *dimBounds) overlapFraction(q record.Box) float64 {
	frac := 1.0
	for d := 0; d < q.Dims() && d < record.NumDims; d++ {
		if b[d][0] > b[d][1] {
			return 0
		}
		width := float64(b[d][1]) - float64(b[d][0]) + 1
		bounds := record.Range{Lo: b[d][0], Hi: b[d][1]}
		inter := bounds.Intersect(q.Dim(d))
		if inter.Empty() {
			return 0
		}
		frac *= inter.Width() / width
	}
	return frac
}

// level is one immutable on-disk delta level. All fields are written once
// by writeDelta/openDelta and never mutated, so levels are shared freely
// across streams and maintenance without locking.
type level struct {
	gen     uint64
	file    *pagefile.File
	path    string // "" for in-memory levels
	inserts *pagefile.ItemFile
	tombs   *pagefile.ItemFile
	filter  *bloomFilter // nil when the level holds no tombstones
	// fences[i] is the Key of the first record on insert page i: a sparse
	// index over the key-ordered insert region, one entry per page.
	fences     []int64
	nIns       int64
	nTombs     int64
	insBounds  dimBounds
	tombBounds dimBounds
}

// size is the level's total record count, the quantity the size-tiered
// compaction policy compares.
func (l *level) size() int64 { return l.nIns + l.nTombs }

// insertRef places record idx of a slice in the insert region's (Key, Seq)
// order. Sorting these 24-byte references and writing the records through
// them moves no 100-byte record and leaves the caller's slice as it was.
type insertRef struct {
	key int64
	seq uint64
	idx int
}

func refTo(recs []record.Record, i int) insertRef {
	return insertRef{key: recs[i].Key, seq: recs[i].Seq, idx: i}
}

// byKeySeq is the insert region's order.
func byKeySeq(a, b insertRef) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// appendWords appends words to f as a region of 8-byte little-endian items
// and returns the region's first page.
func appendWords[T int64 | uint64](f *pagefile.File, words []T) (int64, error) {
	start := f.NumPages()
	w := pagefile.NewItemFile(f, 8).NewWriter()
	var buf [8]byte
	for _, x := range words {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		if err := w.Write(buf[:]); err != nil {
			return 0, err
		}
	}
	return start, w.Flush()
}

// readWords reads back the n-word region appendWords wrote at page start.
func readWords[T int64 | uint64](f *pagefile.File, start, n int64) ([]T, error) {
	itf, err := pagefile.OpenItemFile(f, 8, start, n)
	if err != nil {
		return nil, err
	}
	words := make([]T, 0, n)
	r := itf.NewReader()
	for {
		item, err := r.Next()
		if err == io.EOF {
			return words, nil
		}
		if err != nil {
			return nil, err
		}
		words = append(words, T(binary.LittleEndian.Uint64(item)))
	}
}

// writeDelta writes a new delta level holding the given inserts and
// tombstones. A non-empty path creates an OS-backed pagefile; otherwise the
// level lives in simulated memory. Inserts are written in (Key, Seq) order
// and not modified (a flush's are a snapshot queries still read); tombs is
// sorted by Seq in place.
func writeDelta(sim *iosim.Sim, path string, gen uint64, inserts, tombs []record.Record) (*level, error) {
	order := make([]insertRef, len(inserts))
	for i := range inserts {
		order[i] = refTo(inserts, i)
	}
	slices.SortFunc(order, byKeySeq)
	sort.Slice(tombs, func(i, j int) bool { return tombs[i].Seq < tombs[j].Seq })

	var f *pagefile.File
	var err error
	if path == "" {
		f = pagefile.NewMem(sim)
	} else if f, err = pagefile.Create(sim, path); err != nil {
		return nil, fmt.Errorf("lsm: creating delta file: %w", err)
	}
	ps := f.PageSize()
	if headerSize > ps {
		f.Close()
		return nil, fmt.Errorf("lsm: page size %d below delta header size %d", ps, headerSize)
	}

	lvl := &level{gen: gen, file: f, path: path,
		nIns: int64(len(inserts)), nTombs: int64(len(tombs)),
		insBounds: emptyBounds(), tombBounds: emptyBounds()}
	for i := range inserts {
		lvl.insBounds.extend(&inserts[i])
	}
	for i := range tombs {
		lvl.tombBounds.extend(&tombs[i])
	}

	// Header placeholder first (rewritten once the region layout is known).
	hdrBuf := make([]byte, ps)
	hdrPage, err := f.Append(hdrBuf)
	if err != nil {
		return nil, fmt.Errorf("lsm: writing delta header: %w", err)
	}

	// Bloom region over tombstone Seqs.
	var d regionDir
	if len(tombs) > 0 {
		lvl.filter = newBloom(len(tombs))
		for i := range tombs {
			lvl.filter.add(tombs[i].Seq)
		}
		if d.bloomStart, err = appendWords(f, lvl.filter.bits); err != nil {
			return nil, fmt.Errorf("lsm: writing bloom region: %w", err)
		}
		d.bloomWords = int64(len(lvl.filter.bits))
	}

	// writeRegion writes the n records at(0..n-1) as one item region.
	writeRegion := func(n int, at func(i int) *record.Record) (int64, *pagefile.ItemFile, error) {
		start := f.NumPages()
		itf := pagefile.NewItemFile(f, record.Size)
		w := itf.NewWriter()
		var buf [record.Size]byte
		for i := 0; i < n; i++ {
			at(i).Marshal(buf[:])
			if err := w.Write(buf[:]); err != nil {
				return 0, nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return 0, nil, err
		}
		return start, itf, nil
	}
	d.insStart, lvl.inserts, err = writeRegion(len(order), func(i int) *record.Record { return &inserts[order[i].idx] })
	if err != nil {
		return nil, fmt.Errorf("lsm: writing insert region: %w", err)
	}
	d.tombStart, lvl.tombs, err = writeRegion(len(tombs), func(i int) *record.Record { return &tombs[i] })
	if err != nil {
		return nil, fmt.Errorf("lsm: writing tombstone region: %w", err)
	}

	perPage := lvl.inserts.PerPage()
	lvl.fences = make([]int64, 0, lvl.inserts.NumPages())
	for i := 0; i < len(order); i += perPage {
		lvl.fences = append(lvl.fences, order[i].key)
	}
	if d.fenceStart, err = appendWords(f, lvl.fences); err != nil {
		return nil, fmt.Errorf("lsm: writing fence region: %w", err)
	}
	d.fenceCount = int64(len(lvl.fences))

	encodeHeader(hdrBuf, lvl, &d)
	if err := f.Write(hdrPage, hdrBuf); err != nil {
		return nil, fmt.Errorf("lsm: finalizing delta header: %w", err)
	}
	return lvl, nil
}

// regionDir is the header's region directory: the first page of each region
// and, for the word regions, how many words they hold (the item regions'
// counts are the level's nIns and nTombs).
type regionDir struct {
	insStart, tombStart    int64
	bloomStart, bloomWords int64
	fenceStart, fenceCount int64
}

// headerWords lists, in stored order, the 64-bit header fields between the
// generation (bytes 16-24) and the bounding boxes (from byte 88).
func headerWords(l *level, d *regionDir) [8]*int64 {
	return [8]*int64{&l.nIns, &l.nTombs, &d.insStart, &d.tombStart,
		&d.bloomStart, &d.bloomWords, &d.fenceStart, &d.fenceCount}
}

func encodeHeader(dst []byte, l *level, d *regionDir) {
	copy(dst[0:8], deltaMagic)
	binary.LittleEndian.PutUint32(dst[8:12], deltaLayout)
	binary.LittleEndian.PutUint32(dst[12:16], bloomHashes)
	binary.LittleEndian.PutUint64(dst[16:24], l.gen)
	for i, p := range headerWords(l, d) {
		binary.LittleEndian.PutUint64(dst[24+8*i:], uint64(*p))
	}
	off := 88
	for _, b := range [2]dimBounds{l.insBounds, l.tombBounds} {
		for d := 0; d < record.NumDims; d++ {
			binary.LittleEndian.PutUint64(dst[off:], uint64(b[d][0]))
			binary.LittleEndian.PutUint64(dst[off+8:], uint64(b[d][1]))
			off += 16
		}
	}
}

// openDelta opens a stored delta level, loading its header, bloom filter
// and fences (one sequential pass over each small metadata region).
func openDelta(sim *iosim.Sim, path string) (*level, error) {
	f, err := pagefile.Open(sim, path)
	if err != nil {
		return nil, fmt.Errorf("lsm: opening delta file: %w", err)
	}
	lvl, err := loadDelta(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return lvl, nil
}

func loadDelta(f *pagefile.File, path string) (*level, error) {
	buf := make([]byte, f.PageSize())
	if err := f.Read(0, buf); err != nil {
		return nil, fmt.Errorf("lsm: reading delta header: %w", err)
	}
	if string(buf[0:8]) != deltaMagic {
		return nil, fmt.Errorf("lsm: %s is not a delta file", path)
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != deltaLayout {
		return nil, &DeltaLayoutError{Path: path, Version: v}
	}
	lvl := &level{file: f, path: path}
	lvl.gen = binary.LittleEndian.Uint64(buf[16:24])
	var d regionDir
	for i, p := range headerWords(lvl, &d) {
		*p = int64(binary.LittleEndian.Uint64(buf[24+8*i:]))
	}
	off := 88
	for _, b := range [2]*dimBounds{&lvl.insBounds, &lvl.tombBounds} {
		for d := 0; d < record.NumDims; d++ {
			b[d][0] = int64(binary.LittleEndian.Uint64(buf[off:]))
			b[d][1] = int64(binary.LittleEndian.Uint64(buf[off+8:]))
			off += 16
		}
	}

	var err error
	if lvl.inserts, err = pagefile.OpenItemFile(f, record.Size, d.insStart, lvl.nIns); err != nil {
		return nil, fmt.Errorf("lsm: delta insert region: %w", err)
	}
	if lvl.tombs, err = pagefile.OpenItemFile(f, record.Size, d.tombStart, lvl.nTombs); err != nil {
		return nil, fmt.Errorf("lsm: delta tombstone region: %w", err)
	}
	if d.bloomWords > 0 {
		bits, err := readWords[uint64](f, d.bloomStart, d.bloomWords)
		if err != nil {
			return nil, fmt.Errorf("lsm: reading bloom region: %w", err)
		}
		lvl.filter = bloomFromBits(bits)
	}
	if d.fenceCount != lvl.inserts.NumPages() {
		return nil, fmt.Errorf("lsm: %s has %d fences for %d insert pages", path, d.fenceCount, lvl.inserts.NumPages())
	}
	if lvl.fences, err = readWords[int64](f, d.fenceStart, d.fenceCount); err != nil {
		return nil, fmt.Errorf("lsm: reading fence region: %w", err)
	}
	return lvl, nil
}

// window returns the part of the insert region that can hold records
// matching q, as an item file over whole pages of itf (the level's insert
// region, possibly on a stream's clock): from the page before the first
// fence at or above the key range's Lo — a page's tail may reach Lo although
// its first key is below it, and a run of keys equal to Lo may start there —
// through the last page whose fence is at or below Hi. nil means no page
// can: the level's bounds are disjoint from q, or the fences leave nothing.
func (l *level) window(itf *pagefile.ItemFile, q record.Box) (*pagefile.ItemFile, error) {
	if l.nIns == 0 || !l.insBounds.overlaps(q) {
		return nil, nil
	}
	keys := q.Dim(0)
	first, _ := slices.BinarySearch(l.fences, keys.Lo)
	first = max(first-1, 0)
	end := sort.Search(len(l.fences), func(i int) bool { return l.fences[i] > keys.Hi })
	if end <= first {
		return nil, nil
	}
	per := int64(itf.PerPage())
	return pagefile.OpenItemFile(itf.File(), record.Size, itf.StartPage()+int64(first),
		min(int64(end)*per, l.nIns)-int64(first)*per)
}

// matchingInserts returns the level's inserts matching q, reading only the
// window of pages the fences leave for q's key range in one sequential pass
// charged to the given item-file view. Every record read is still tested
// against q, so the fences only ever narrow what is read, never what
// matches.
func (l *level) matchingInserts(itf *pagefile.ItemFile, q record.Box) ([]record.Record, error) {
	win, err := l.window(itf, q)
	if win == nil || err != nil {
		return nil, err
	}
	// A 1-d predicate matches the whole window but the ends of its two
	// boundary pages, so the window sizes the result once; a box filters on
	// further dimensions and grows by append.
	var dst []record.Record
	if q.Dims() == 1 {
		dst = make([]record.Record, 0, win.Count())
	}
	hi := q.Dim(0).Hi
	r := win.NewReader()
	var rec record.Record
	for {
		item, err := r.Next()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		rec.Unmarshal(item)
		if rec.Key > hi {
			return dst, nil
		}
		if q.ContainsRecord(&rec) {
			dst = append(dst, rec)
		}
	}
}

// lookupTomb reports whether the level tombstones seq. The in-memory bloom
// filter answers almost every probe for free; a positive test pays a
// binary search of random reads over the sorted on-disk tombstone region,
// charged to the given item-file view.
func (l *level) lookupTomb(itf *pagefile.ItemFile, seq uint64) (bool, error) {
	if l.filter == nil || !l.filter.mayContain(seq) {
		return false, nil
	}
	lo, hi := int64(0), l.nTombs-1
	var buf [record.Size]byte
	for lo <= hi {
		mid := lo + (hi-lo)/2
		if err := itf.Get(mid, buf[:]); err != nil {
			return false, err
		}
		got := binary.LittleEndian.Uint64(buf[16:24]) // Seq field
		switch {
		case got == seq:
			return true, nil
		case got < seq:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return false, nil
}

// readAll appends every record of the given region to dst (a sequential
// scan on the level's own file, charged to the shared disk): the bulk read
// used by merges and folds.
func readAll(itf *pagefile.ItemFile, dst []record.Record) ([]record.Record, error) {
	r := itf.NewReader()
	var rec record.Record
	for {
		item, err := r.Next()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		rec.Unmarshal(item)
		dst = append(dst, rec)
	}
}

// verify checks the level's stored bytes against everything its readers
// trust without looking: the range read trusts the insert order and the
// fences, lookupTomb the tombstone order, the tombstone checker the bloom
// filter, and level skipping the header's counts and bounds.
func (l *level) verify() error {
	if int64(len(l.fences)) != l.inserts.NumPages() {
		return fmt.Errorf("%d fences for %d insert pages", len(l.fences), l.inserts.NumPages())
	}
	ins, err := readRegion(l.inserts, l.nIns, "insert")
	if err != nil {
		return err
	}
	per, bounds := l.inserts.PerPage(), emptyBounds()
	for i := range ins {
		if i > 0 && byKeySeq(refTo(ins, i-1), refTo(ins, i)) > 0 {
			return fmt.Errorf("insert %d (key %d, seq %d) sorts before its predecessor", i, ins[i].Key, ins[i].Seq)
		}
		if i%per == 0 && l.fences[i/per] != ins[i].Key {
			return fmt.Errorf("fence %d is %d but its insert page starts at key %d", i/per, l.fences[i/per], ins[i].Key)
		}
		bounds.extend(&ins[i])
	}
	if bounds != l.insBounds {
		return fmt.Errorf("insert bounds %v in the header, %v in the region", l.insBounds, bounds)
	}
	tombs, err := readRegion(l.tombs, l.nTombs, "tombstone")
	if err != nil {
		return err
	}
	bounds = emptyBounds()
	for i := range tombs {
		if i > 0 && tombs[i-1].Seq >= tombs[i].Seq {
			return fmt.Errorf("tombstone %d (seq %d) does not sort after its predecessor", i, tombs[i].Seq)
		}
		if l.filter == nil || !l.filter.mayContain(tombs[i].Seq) {
			return fmt.Errorf("tombstone seq %d fails the level's bloom filter", tombs[i].Seq)
		}
		bounds.extend(&tombs[i])
	}
	if bounds != l.tombBounds {
		return fmt.Errorf("tombstone bounds %v in the header, %v in the region", l.tombBounds, bounds)
	}
	return nil
}

// readRegion reads an item region whole for verify, checking the header's
// count n against the stored bytes: the writer zero-pads the last page, so
// anything after item n means the region holds more than the header says.
func readRegion(itf *pagefile.ItemFile, n int64, name string) ([]record.Record, error) {
	if n != itf.Count() {
		return nil, fmt.Errorf("%s region opened with %d items, header says %d", name, itf.Count(), n)
	}
	recs, err := readAll(itf, nil)
	if err != nil {
		return nil, fmt.Errorf("reading %s region: %w", name, err)
	}
	tail := int(n % int64(itf.PerPage()))
	if tail == 0 {
		return recs, nil
	}
	f := itf.File()
	buf := f.PageBuf()
	defer f.PutPageBuf(buf)
	if err := f.Read(itf.StartPage()+itf.NumPages()-1, buf); err != nil {
		return nil, fmt.Errorf("reading %s region: %w", name, err)
	}
	for _, b := range buf[tail*record.Size : itf.PerPage()*record.Size] {
		if b != 0 {
			return nil, fmt.Errorf("%s region holds records past the header's count of %d", name, n)
		}
	}
	return recs, nil
}
