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
//	page 0:            header (magic, layout version, generation, region and run directory, bounds)
//	bloom region:      filter bits over the level's tombstone Seqs
//	insert region:     ItemFile of live inserted records, sorted by (stratum, Key, Seq)
//	tombstone region:  ItemFile of tombstone records, sorted by Seq
//	fence region:      run fences — per run, the first Key of its records on every insert page it touches —
//	                   then rank fences: the (Key, Seq) of every rankFenceEvery-th insert in level-wide (Key, Seq) order
//
// A record's stratum is fixed by a 64-bit mix of its Seq, independent of
// its key; strata grow geometrically from about one page, and stratum j's
// records form run j of the insert region, key-ordered within the run. A
// stream reads a level one run at a time, smallest first: because every
// record lands in stratum j independently with a fixed probability, the
// runs in order, each shuffled, are a uniform random permutation of the
// level (see DESIGN.md, "Why a lazily read level is still an exact
// sample"). The rank fences (loaded in memory when the level is opened, as
// the bloom filter and run fences are) give the exact size of the candidate
// set a predicate's key range leaves in the level without any I/O; the run
// fences narrow a run's read to the pages that range covers.
//
// Tombstones carry the full deleted record, not just its Seq, so query
// planning can bound which key region a level's deletes affect. The
// header's per-dimension bounds let queries skip levels disjoint from the
// predicate, and the bloom filter prunes per-draw tombstone probes down to
// the rare positive.
package lsm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"

	"sampleview/internal/iosim"
	"sampleview/internal/pagefile"
	"sampleview/internal/record"
)

// deltaMagic identifies a delta-level file.
const deltaMagic = "SVDELTA1"

// deltaLayout is the layout version this package writes and the only one it
// reads: version 1 sorted inserts by Seq and had no fences, version 2 sorted
// the whole insert region by (Key, Seq) with one fence per page.
const deltaLayout = 3

const (
	// strataGrowth is the ratio between consecutive strata's expected sizes
	// and rankFenceEvery the spacing of the rank fences; DESIGN.md ("Delta
	// ladder") records the measurements that chose both.
	strataGrowth   = 4
	rankFenceEvery = 64
	// maxRuns bounds the header's run directory. Sixteen runs growing 4x from
	// one page cover 4^16 pages; a larger level's last stratum takes the rest.
	maxRuns = 16
)

// headerFixed is where the 64-bit header fields start and boundsOff where
// the two bounding boxes do; headerSize is the number of meaningful bytes in
// the header page.
const (
	headerFixed = 8 + 4 + 4 + 8
	boundsOff   = headerFixed + 8*(8+maxRuns)
	headerSize  = boundsOff + record.NumDims*32
)

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
	// runEnd[j] is the slot after run j's last insert: run j holds stratum j
	// in (Key, Seq) order at slots [runEnd[j-1], runEnd[j]) of the insert
	// region, neither end page-aligned.
	runEnd []int64
	// fences holds, run after run, the first Key of the run's records on each
	// insert page the run touches; run j's fences are
	// fences[runFence[j]:runFence[j+1]].
	fences   []int64
	runFence []int
	// ranks[k] is the (Key, Seq) of the insert at position k*rankFenceEvery
	// of the level-wide (Key, Seq) order.
	ranks      []keySeq
	nIns       int64
	nTombs     int64
	insBounds  dimBounds
	tombBounds dimBounds
}

// size is the level's total record count, the quantity the size-tiered
// compaction policy compares.
func (l *level) size() int64 { return l.nIns + l.nTombs }

// keySeq is a record's place in a level's key order; Seqs are unique, so
// the order is total.
type keySeq struct {
	key int64
	seq uint64
}

func (a keySeq) compare(b keySeq) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func keySeqOf(rec *record.Record) keySeq { return keySeq{rec.Key, rec.Seq} }

// insertRef places record idx of a slice in the insert region. Sorting these
// references and writing the records through them moves no 100-byte record
// and leaves the caller's slice as it was.
type insertRef struct {
	keySeq
	idx int
}

// strataCuts returns the positions, on a scale of n records, at which one
// stratum ends and the next begins: strata are sized per, strataGrowth*per,
// ... records, and a stratum is closed only while at least as much again
// remains, so the last one is never a sliver.
func strataCuts(n int64, per int) []int64 {
	var cuts []int64
	for size, cum := int64(per), int64(0); n-cum-size >= size && len(cuts) < maxRuns-1; size *= strataGrowth {
		cum += size
		cuts = append(cuts, cum)
	}
	return cuts
}

// stratumOf maps seq to its stratum in a level of n inserts: a splitmix64
// finalizer spreads the Seq over [0, n) and the cuts bin it, so a record
// lands in stratum j with probability (size of j)/n whatever its key. The mix
// depends on nothing but the Seq, so it survives compaction: merging levels
// changes n and the cuts, never which of two records comes in the earlier
// stratum.
func stratumOf(seq uint64, n int64, cuts []int64) int {
	x := seq + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	pos, _ := bits.Mul64(x^x>>31, uint64(n))
	j := 0
	for j < len(cuts) && cuts[j] <= int64(pos) {
		j++
	}
	return j
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

// fenceSlots returns the slot each fence of a level describes — per run, the
// run's first slot on every insert page it touches — and each run's offset
// into that list, the list's length last.
func fenceSlots(runEnd []int64, per int64) (slots []int64, runFence []int) {
	start := int64(0)
	for _, end := range runEnd {
		runFence = append(runFence, len(slots))
		for slot := start; slot < end; slot = (slot/per + 1) * per {
			slots = append(slots, slot)
		}
		start = end
	}
	return slots, append(runFence, len(slots))
}

// runStart is the slot of run j's first insert.
func (l *level) runStart(j int) int64 {
	if j == 0 {
		return 0
	}
	return l.runEnd[j-1]
}

// writeDelta writes a new delta level holding the given inserts and
// tombstones. A non-empty path creates an OS-backed pagefile; otherwise the
// level lives in simulated memory. Inserts are written in (stratum, Key,
// Seq) order and not modified (a flush's are a snapshot queries still read);
// tombs is sorted by Seq in place.
func writeDelta(sim *iosim.Sim, path string, gen uint64, inserts, tombs []record.Record) (*level, error) {
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

	// The level-wide key order first: the rank fences are cut from it before
	// the records are dealt into strata, each of which keeps that order.
	sorted := make([]insertRef, len(inserts))
	for i := range inserts {
		sorted[i] = insertRef{keySeqOf(&inserts[i]), i}
	}
	slices.SortFunc(sorted, func(a, b insertRef) int { return a.compare(b.keySeq) })
	for i := 0; i < len(sorted); i += rankFenceEvery {
		lvl.ranks = append(lvl.ranks, sorted[i].keySeq)
	}
	per := ps / record.Size
	cuts := strataCuts(lvl.nIns, per)
	lvl.runEnd = make([]int64, len(cuts)+1)
	strata := make([]uint8, len(sorted))
	for i := range sorted {
		strata[i] = uint8(stratumOf(sorted[i].seq, lvl.nIns, cuts))
		lvl.runEnd[strata[i]]++
	}
	next := make([]int64, len(lvl.runEnd)) // the slot each run's next record takes
	for j := 1; j < len(next); j++ {
		next[j] = lvl.runEnd[j-1]
		lvl.runEnd[j] += lvl.runEnd[j-1]
	}
	order := make([]insertRef, len(sorted))
	for i := range sorted {
		order[next[strata[i]]] = sorted[i]
		next[strata[i]]++
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

	var slots []int64
	slots, lvl.runFence = fenceSlots(lvl.runEnd, int64(per))
	for _, slot := range slots {
		lvl.fences = append(lvl.fences, order[slot].key)
	}
	words := slices.Grow(slices.Clone(lvl.fences), 2*len(lvl.ranks))
	for _, r := range lvl.ranks {
		words = append(words, r.key, int64(r.seq))
	}
	if d.fenceStart, err = appendWords(f, words); err != nil {
		return nil, fmt.Errorf("lsm: writing fence region: %w", err)
	}

	encodeHeader(hdrBuf, lvl, &d)
	if err := f.Write(hdrPage, hdrBuf); err != nil {
		return nil, fmt.Errorf("lsm: finalizing delta header: %w", err)
	}
	return lvl, nil
}

// regionDir is the header's region directory: the first page of each region
// and how many words the bloom region holds (the other regions' sizes follow
// from the level's counts and run directory).
type regionDir struct {
	insStart, tombStart    int64
	bloomStart, bloomWords int64
	fenceStart, nRuns      int64
	runEnd                 [maxRuns]int64
}

// headerWords lists, in stored order, the 64-bit header fields between the
// generation and the bounding boxes.
func headerWords(l *level, d *regionDir) []*int64 {
	words := []*int64{&l.nIns, &l.nTombs, &d.insStart, &d.tombStart,
		&d.bloomStart, &d.bloomWords, &d.fenceStart, &d.nRuns}
	for j := range d.runEnd {
		words = append(words, &d.runEnd[j])
	}
	return words
}

func encodeHeader(dst []byte, l *level, d *regionDir) {
	copy(dst[0:8], deltaMagic)
	binary.LittleEndian.PutUint32(dst[8:12], deltaLayout)
	binary.LittleEndian.PutUint32(dst[12:16], bloomHashes)
	binary.LittleEndian.PutUint64(dst[16:24], l.gen)
	d.nRuns = int64(copy(d.runEnd[:], l.runEnd))
	for i, p := range headerWords(l, d) {
		binary.LittleEndian.PutUint64(dst[headerFixed+8*i:], uint64(*p))
	}
	off := boundsOff
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
		*p = int64(binary.LittleEndian.Uint64(buf[headerFixed+8*i:]))
	}
	off := boundsOff
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
	// The run directory sizes the fence region, so it is vetted before
	// anything is read through it.
	if d.nRuns < 1 || d.nRuns > maxRuns {
		return nil, fmt.Errorf("lsm: %s has %d insert runs, want 1..%d", path, d.nRuns, maxRuns)
	}
	lvl.runEnd = slices.Clone(d.runEnd[:d.nRuns])
	if !slices.IsSorted(lvl.runEnd) || lvl.runEnd[0] < 0 || lvl.runEnd[d.nRuns-1] != lvl.nIns {
		return nil, fmt.Errorf("lsm: %s has run offsets %v for %d inserts", path, lvl.runEnd, lvl.nIns)
	}
	_, lvl.runFence = fenceSlots(lvl.runEnd, int64(lvl.inserts.PerPage()))
	nFences, nRanks := lvl.runFence[d.nRuns], int((lvl.nIns+rankFenceEvery-1)/rankFenceEvery)
	words, err := readWords[int64](f, d.fenceStart, int64(nFences+2*nRanks))
	if err != nil {
		return nil, fmt.Errorf("lsm: reading fence region: %w", err)
	}
	lvl.fences = words[:nFences:nFences]
	for w := words[nFences:]; len(w) > 0; w = w[2:] {
		lvl.ranks = append(lvl.ranks, keySeq{w[0], uint64(w[1])})
	}
	return lvl, nil
}

// candRange is the candidate set a predicate's key range leaves in one
// level: the n inserts whose (Key, Seq) lies in [lo, hi) — or at or above lo
// when open — the two rank fences enclosing the range. It is a superset of
// the level's matches (up to rankFenceEvery-1 strangers at each end, and
// whatever the predicate's other dimensions exclude), its size is exact, and
// its membership does not depend on how the level is cut into strata.
type candRange struct {
	lo, hi keySeq
	open   bool
	n      int64
}

// candidates returns q's candidate set in the level from the in-memory rank
// fences alone. A level whose bounds are disjoint from q has none.
func (l *level) candidates(q record.Box) candRange {
	if l.nIns == 0 || !l.insBounds.overlaps(q) {
		return candRange{}
	}
	keys := q.Dim(0)
	a := max(sort.Search(len(l.ranks), func(k int) bool { return l.ranks[k].key >= keys.Lo })-1, 0)
	b := sort.Search(len(l.ranks), func(k int) bool { return l.ranks[k].key > keys.Hi })
	c := candRange{lo: l.ranks[a], open: b == len(l.ranks)}
	end := l.nIns
	if !c.open {
		c.hi, end = l.ranks[b], int64(b)*rankFenceEvery
	}
	c.n = max(end-int64(a)*rankFenceEvery, 0)
	return c
}

func (c *candRange) contains(rec *record.Record) bool {
	ks := keySeqOf(rec)
	return c.lo.compare(ks) <= 0 && (c.open || ks.compare(c.hi) < 0)
}

// runWindow returns the pages [first, last) of the insert region on which
// run j can hold candidates of c: from the page before the run's first fence
// at or above c's low key — a page's tail may reach that key although the
// run's first key on it is below — through the last page whose fence is at
// or below c's high key.
func (l *level) runWindow(j int, c *candRange) (first, last int64) {
	if c.n == 0 || l.runStart(j) == l.runEnd[j] {
		return 0, 0
	}
	fences := l.fences[l.runFence[j]:l.runFence[j+1]]
	lo, _ := slices.BinarySearch(fences, c.lo.key)
	lo = max(lo-1, 0)
	hi := len(fences)
	if !c.open {
		hi = sort.Search(len(fences), func(i int) bool { return fences[i] > c.hi.key })
	}
	page0 := l.runStart(j) / int64(l.inserts.PerPage())
	return page0 + int64(lo), page0 + int64(hi)
}

// readRun appends to dst the candidates of c stored in run j, reading the
// run's window in one sequential pass through the page-sized buffer page,
// charged to itf (the level's insert region, possibly on a stream's clock).
func (l *level) readRun(itf *pagefile.ItemFile, j int, c *candRange, page []byte, dst []record.Record) ([]record.Record, error) {
	first, last := l.runWindow(j, c)
	if first == last {
		return dst, nil
	}
	start, end, per := l.runStart(j), l.runEnd[j], int64(itf.PerPage())
	dst = slices.Grow(dst, int(c.n*(end-start)/l.nIns))
	var rec record.Record
	for p := first; p < last; p++ {
		payload, err := itf.File().ReadPayload(itf.StartPage()+p, page)
		if err != nil {
			return dst, err
		}
		for slot := max(start, p*per); slot < min(end, (p+1)*per); slot++ {
			rec.Unmarshal(payload[(slot-p*per)*record.Size:])
			if c.contains(&rec) {
				dst = append(dst, rec)
			}
		}
	}
	return dst, nil
}

// readRunRetry is readRun driven through transient faults: a failed pass is
// discarded and the run read again on the same clock, up to attempts times.
func (l *level) readRunRetry(itf *pagefile.ItemFile, j int, c *candRange, page []byte, dst []record.Record, attempts int) ([]record.Record, error) {
	for a := 1; ; a++ {
		out, err := l.readRun(itf, j, c, page, dst)
		if err == nil || !pagefile.IsTransient(err) || a >= attempts {
			return out, err
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
// trust without looking: the run read trusts the run directory, each run's
// order and fences and every record's stratum, the candidate arithmetic the
// rank fences, lookupTomb the tombstone order, the tombstone checker the
// bloom filter, and level skipping the header's counts and bounds.
func (l *level) verify() error {
	ins, err := readRegion(l.inserts, l.nIns, "insert")
	if err != nil {
		return err
	}
	per, bounds := int64(l.inserts.PerPage()), emptyBounds()
	cuts := strataCuts(l.nIns, int(per))
	if len(l.runEnd) != len(cuts)+1 {
		return fmt.Errorf("%d insert runs, %d inserts make %d strata", len(l.runEnd), l.nIns, len(cuts)+1)
	}
	strata, held := make([]int, len(ins)), make([]int64, len(l.runEnd))
	for i := range ins {
		strata[i] = stratumOf(ins[i].Seq, l.nIns, cuts)
		held[strata[i]]++
		bounds.extend(&ins[i])
	}
	for j, end := range l.runEnd {
		if n := end - l.runStart(j); n != held[j] {
			return fmt.Errorf("run %d spans %d slots but %d inserts belong to stratum %d", j, n, held[j], j)
		}
		for i := l.runStart(j); i < end; i++ {
			if strata[i] != j {
				return fmt.Errorf("insert %d (seq %d) of stratum %d is stored in run %d", i, ins[i].Seq, strata[i], j)
			}
			if i > l.runStart(j) && keySeqOf(&ins[i-1]).compare(keySeqOf(&ins[i])) > 0 {
				return fmt.Errorf("insert %d (key %d, seq %d) sorts before its predecessor in run %d", i, ins[i].Key, ins[i].Seq, j)
			}
		}
	}
	slots, _ := fenceSlots(l.runEnd, per)
	for k, slot := range slots {
		if l.fences[k] != ins[slot].Key {
			return fmt.Errorf("fence %d is %d but its run's records on the page start at key %d", k, l.fences[k], ins[slot].Key)
		}
	}
	if bounds != l.insBounds {
		return fmt.Errorf("insert bounds %v in the header, %v in the region", l.insBounds, bounds)
	}
	slices.SortFunc(ins, func(a, b record.Record) int { return keySeqOf(&a).compare(keySeqOf(&b)) })
	for k, r := range l.ranks {
		if at := keySeqOf(&ins[k*rankFenceEvery]); r != at {
			return fmt.Errorf("rank fence %d is (key %d, seq %d) but insert %d of the key order is (key %d, seq %d)",
				k, r.key, r.seq, k*rankFenceEvery, at.key, at.seq)
		}
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
