// Package extsort implements a two-phase multi-way external merge sort
// (TPMMS, Garcia-Molina et al.) over fixed-size item files.
//
// Every construction path in the reproduction is built on this sorter, just
// as in the paper: permuting a file is "assign a random sort key, external
// sort"; ACE Tree construction phase 1 is an external sort by record key;
// phase 2 is an external sort by (leaf number, section number).
//
// Phase 1 reads the input sequentially, sorts memory-sized chunks, and
// writes each as a sorted run. Phase 2 merges up to fan-in runs at a time
// with a tournament heap, reading each run and writing the output in
// multi-page bursts so one seek is amortized over several transfers. If
// more runs exist than the fan-in allows, intermediate merge passes are
// inserted, so the sorter works with any memory budget of at least three
// pages. All I/O is charged to the simulated disk through pagefile.
//
// Workers spread phase 1 (and the independent groups of intermediate merge
// passes) over a pool of goroutines. Chunk boundaries depend only on the
// memory budget, runs are collected in chunk order, and the merge consumes
// them in that fixed order, so the sorted output is byte-for-byte identical
// for every worker count. Each chunk and each merge group charges its I/O to
// a private clock forked from the shared simulated disk (iosim.Sim.Fork), so
// the simulated cost is also the same at every worker count, however chunks
// happen to be scheduled over workers. A worker the chunks leave idle (a
// budget larger than the input makes one chunk) helps with the chunks in
// hand: it takes long ranges of a chunk's sort and pages of its gather into
// run pages.
//
// Items are ordered by an extracted key (Key) and moved by the page. A chunk
// is read as page images; what is sorted is one 16-byte (key, offset) pair
// per item, so a comparison never touches an item, and each item is copied
// once, into its page of the run. A merge compares cached keys and copies
// each winner once into its output page; a pass over a single run compares
// nothing and moves whole pages.
//
// Tie order is part of the contract. The sort is not stable: equal keys
// come out in the order the package's pdqsort (pdqsort.go, a copy of Go
// 1.24's slices.SortFunc whose decisions depend only on the comparison
// results and the lengths, so the order is the same at every worker count)
// leaves them within a chunk and the merge heap (container/heap's sift
// rules) leaves them between runs. The order belongs to this package, not
// to the toolchain. View files, the stream goldens and the benchmark's
// frozen run digests all depend on it, so it may change only with them;
// testdata/tieorder.golden pins it.
//
// What is charged is the sequence of page reads and appends, never the bytes
// moved: a chunk is one burst of reads on its forked clock, then its run; a
// merge pass refills each run a burst at a time and appends output
// (pagefile.ItemFile.NewWriterBurst) at the points where a burst of it is
// complete. Moving pages instead of items issues exactly those calls in that
// order (every page still checksum-verified on read and sealed on write), so
// counters and simulated time are a function of input size, item size and
// memPages alone; the same golden pins them.
package extsort

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sampleview/internal/pagefile"
	"sampleview/internal/par"
)

// Key says where an item carries its sort key: a little-endian 64-bit
// integer at byte Offset, ordered as signed or unsigned. Every ordering in
// the repository is one of these (record key, coordinate, tag, random key).
type Key struct {
	Offset int
	Signed bool
}

// of returns item's key mapped so that unsigned order is the key's order.
func (k Key) of(item []byte) uint64 {
	v := binary.LittleEndian.Uint64(item[k.Offset:])
	if k.Signed {
		v ^= 1 << 63
	}
	return v
}

// MinMemPages is the smallest usable memory budget: one input page, one
// output page, and at least two merge inputs.
const MinMemPages = 3

// Sort reads all items from src and writes them to dst in key order. dst
// must be an empty item file with the same item size as src. memPages is
// the number of page-sized memory buffers the sorter may use. Run formation
// and intermediate merge passes are spread over up to workers goroutines
// (each holding its own memPages of sort memory; fewer than one counts as
// one), and the output and its simulated cost are the same for every
// worker count.
func Sort(dst, src *pagefile.ItemFile, key Key, memPages, workers int) error {
	if memPages < MinMemPages {
		return fmt.Errorf("extsort: memory budget %d pages below minimum %d", memPages, MinMemPages)
	}
	if dst.ItemSize() != src.ItemSize() {
		return fmt.Errorf("extsort: item size mismatch: dst %d, src %d", dst.ItemSize(), src.ItemSize())
	}
	if key.Offset < 0 || key.Offset+8 > src.ItemSize() {
		return fmt.Errorf("extsort: key at offset %d outside a %d-byte item", key.Offset, src.ItemSize())
	}
	if dst.Count() != 0 {
		return fmt.Errorf("extsort: destination already holds %d items", dst.Count())
	}
	// A crew of no workers would never let a chunk start.
	workers = max(workers, 1)
	runs, err := formRuns(src, key, memPages, workers)
	if err != nil {
		closeRuns(runs)
		return err
	}
	fanIn := memPages - 1
	// Intermediate passes until the final merge fits in one pass.
	for len(runs) > fanIn {
		next := make([]*pagefile.ItemFile, (len(runs)+fanIn-1)/fanIn)
		if err := mergeGroups(next, runs, key, memPages, fanIn, workers); err != nil {
			closeRuns(runs)
			closeRuns(next)
			return err
		}
		runs = next
	}
	return mergeRuns(dst, runs, key, memPages)
}

// closeRuns releases the memory of temporary run files (nil entries are
// runs a failed pass never produced). Closing twice is harmless.
func closeRuns(runs []*pagefile.ItemFile) {
	for _, r := range runs {
		if r != nil {
			r.File().Close()
		}
	}
}

// pair is one item of a chunk during run formation: its extracted key and
// where it sits in the arena.
type pair struct {
	key uint64
	off int
}

// crew is one Sort's workers, as a channel holding a token per busy one: a
// chunk holds one while it is read, sorted and written, and a worker the
// chunk loop leaves free (fewer chunks than workers, or the last chunk still
// running) is lent to a range of a chunk's sort or to its gather. Lending
// never waits: when every worker is busy the chunk does the work itself.
type crew chan struct{}

// lend runs fn on a free worker, counted in wg, and reports whether one was
// free.
func (c crew) lend(wg *sync.WaitGroup, fn func()) bool {
	select {
	case c <- struct{}{}:
	default:
		return false
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
		<-c
	}()
	return true
}

// gatherPages is how many run pages a chunk fills before appending them.
const gatherPages = 16

// chunkSorter is one worker's sort memory: an arena of source page images
// and the pairs of the items in them, both sized to the largest chunk the
// input has rather than to the budget, and two batches of run page images,
// one appended while the other is filled.
type chunkSorter struct {
	src   *pagefile.ItemFile
	key   Key
	crew  crew
	arena []byte
	pairs []pair
	out   [2][]byte
}

func newChunkSorter(src *pagefile.ItemFile, key Key, memPages int, cw crew) *chunkSorter {
	pages := int(min(int64(memPages), src.NumPages()))
	ps := src.File().PageSize()
	c := &chunkSorter{
		src:   src,
		key:   key,
		crew:  cw,
		arena: make([]byte, pages*ps),
		pairs: make([]pair, 0, pages*src.PerPage()),
	}
	for i := range c.out {
		c.out[i] = make([]byte, min(pages, gatherPages)*ps)
	}
	return c
}

// writeRun sorts the n items on the arena's leading page images and appends
// them to run as a sorted run. Only the 16-byte pairs are sorted: a
// comparison touches no item, and each item moves once, from the arena into
// the image of its run page. Images are filled a batch at a time by the
// chunk's worker and any idle one, and while one batch is appended the idle
// workers fill the next. Batches are appended whole and in page order, so
// the run is charged the same Append calls in the same order at every worker
// count.
func (c *chunkSorter) writeRun(run *pagefile.File, n int) error {
	ps, perPage, itemSize := c.src.File().PageSize(), c.src.PerPage(), c.src.ItemSize()
	c.pairs = c.pairs[:0]
	for base := 0; len(c.pairs) < n; base += ps {
		for off := base; off < base+perPage*itemSize && len(c.pairs) < n; off += itemSize {
			c.pairs = append(c.pairs, pair{c.key.of(c.arena[off:]), off})
		}
	}
	sortPairs(c.pairs, c.crew)
	pages, size := (n+perPage-1)/perPage, len(c.out[0])/ps
	b := c.gather(0, 0, min(size, pages))
	b.finish()
	for {
		var next *batch
		if b.end < pages {
			next = c.gather(1-b.buf, b.end, min(b.end+size, pages))
		}
		for p := b.first; p < b.end; p++ {
			if _, err := run.Append(b.image(p)); err != nil {
				if next != nil {
					next.finish()
				}
				return err
			}
		}
		if next == nil {
			return nil
		}
		next.finish()
		b = next
	}
}

// batch is the filling of the images of run pages [first, end) into
// c.out[buf]: workers claim pages one at a time until none is left.
type batch struct {
	c          *chunkSorter
	buf        int
	first, end int
	claimed    atomic.Int64 // pages claimed so far
	wg         sync.WaitGroup
}

// gather starts filling the images of run pages [first, end) into
// c.out[buf] on every idle worker there is; the caller's is not one of them.
func (c *chunkSorter) gather(buf, first, end int) *batch {
	b := &batch{c: c, buf: buf, first: first, end: end}
	for range end - first - 1 {
		if !c.crew.lend(&b.wg, b.work) {
			break
		}
	}
	return b
}

// finish has the caller fill pages of b too, until every page is done.
func (b *batch) finish() {
	b.work()
	b.wg.Wait()
}

func (b *batch) image(p int) []byte {
	ps := b.c.src.File().PageSize()
	return b.c.out[b.buf][(p-b.first)*ps : (p-b.first+1)*ps]
}

// work fills unclaimed pages until none is left. A page is packed from its
// start and zero after its items.
func (b *batch) work() {
	perPage, itemSize := b.c.src.PerPage(), b.c.src.ItemSize()
	for {
		p := b.first + int(b.claimed.Add(1)) - 1
		if p >= b.end {
			return
		}
		img := b.image(p)
		items := b.c.pairs[p*perPage : min((p+1)*perPage, len(b.c.pairs))]
		for i, pr := range items {
			copy(img[i*itemSize:], b.c.arena[pr.off:pr.off+itemSize])
		}
		clear(img[len(items)*itemSize:])
	}
}

// formRuns performs phase 1 over a worker pool. The input is cut into
// memPages-sized chunks (boundaries are page-aligned, so no source page is
// read by two workers); each chunk is read, sorted and written as a run on a
// clock forked per chunk, and runs are collected in chunk order, so the
// merge sees the same run list at every worker count. A worker the chunks
// leave idle helps sort and gather the chunks in hand. It returns the runs
// it made even beside an error, for the caller to close.
func formRuns(src *pagefile.ItemFile, key Key, memPages, workers int) ([]*pagefile.ItemFile, error) {
	sim, ps := src.File().Sim(), src.File().PageSize()
	nchunks := int((src.NumPages() + int64(memPages) - 1) / int64(memPages))
	runs := make([]*pagefile.ItemFile, nchunks)
	cw := make(crew, workers)
	// Sort memories not in use: a worker makes one for its first chunk, so
	// there are never more of them than chunks or workers.
	idle := make(chan *chunkSorter, workers)
	return runs, par.ForEach(nchunks, workers, func(k int) error {
		cw <- struct{}{}
		defer func() { <-cw }()
		c := par.Take(idle)
		if c == nil {
			c = newChunkSorter(src, key, memPages, cw)
		}
		defer func() { idle <- c }()
		first := int64(k) * int64(memPages)
		pages := min(int64(memPages), src.NumPages()-first)
		items := min(pages*int64(src.PerPage()), src.Count()-first*int64(src.PerPage()))
		ck := sim.Fork()
		// Read the whole chunk in one burst, straight into the arena.
		in := src.File().OnClock(ck)
		for p := int64(0); p < pages; p++ {
			if err := in.Read(src.StartPage()+first+p, c.arena[int(p)*ps:]); err != nil {
				return err
			}
		}
		// The run wraps the unclocked file, so the merge pass charges the
		// caller's clock, not this chunk's.
		mem := pagefile.NewMem(sim)
		err := c.writeRun(mem.OnClock(ck), int(items))
		if err == nil {
			runs[k], err = pagefile.OpenItemFile(mem, src.ItemSize(), 0, items)
		}
		if err != nil {
			mem.Close()
		}
		return err
	})
}

// mergeGroups runs one intermediate merge pass: each group of up to fanIn
// runs is merged into next[g]. The groups are independent and spread over
// the workers, each on its own forked clock.
func mergeGroups(next, runs []*pagefile.ItemFile, key Key, memPages, fanIn, workers int) error {
	sim := runs[0].File().Sim()
	return par.ForEach(len(next), workers, func(g int) error {
		mem := pagefile.NewMem(sim)
		ck := sim.Fork()
		out := pagefile.NewItemFile(mem, runs[0].ItemSize()).OnClock(ck)
		var group []*pagefile.ItemFile
		for _, r := range runs[g*fanIn : min((g+1)*fanIn, len(runs))] {
			group = append(group, r.OnClock(ck))
		}
		err := mergeRuns(out, group, key, memPages)
		if err == nil {
			next[g], err = pagefile.OpenItemFile(mem, out.ItemSize(), 0, out.Count())
		}
		if err != nil {
			mem.Close()
		}
		return err
	})
}

// mergeRuns performs one merge pass of the given runs into dst and closes
// them. Each run is read in multi-page bursts and the output is written in
// multi-page bursts (one seek amortized over the burst), the way a real
// TPMMS allocates its merge buffers; page-at-a-time alternation between the
// runs and the output would turn every access into a seek.
func mergeRuns(dst *pagefile.ItemFile, runs []*pagefile.ItemFile, key Key, memPages int) error {
	defer closeRuns(runs)
	burst := max(1, memPages/(len(runs)+1))
	// The output gets a burst too, no larger than all the pass will write.
	var total int64
	for _, run := range runs {
		total += run.NumPages()
	}
	w := dst.NewWriterBurst(int(max(1, min(int64(burst), total))))
	if len(runs) == 1 {
		return copyRun(w, runs[0])
	}
	h := &mergeHeap{}
	for _, run := range runs {
		c := &runCursor{r: run.NewReaderBurst(0, burst)}
		ok, err := c.advance(key)
		if err != nil {
			return err
		}
		if ok {
			h.entries = append(h.entries, c)
		}
	}
	h.init()
	for len(h.entries) > 0 {
		e := h.entries[0]
		if err := w.Write(e.cur); err != nil {
			return err
		}
		ok, err := e.advance(key)
		if err != nil {
			return err
		}
		if !ok {
			h.pop()
		} else {
			h.fix()
		}
	}
	return w.Flush()
}

// runCursor is the head of one sorted run, read in page bursts (one seek
// plus burst-1 sequential transfers per refill), with its key extracted once.
type runCursor struct {
	r   *pagefile.ItemReader
	cur []byte
	key uint64
}

// advance loads the run's next item; it returns false at the end of the run.
func (c *runCursor) advance(k Key) (bool, error) {
	item, err := c.r.Next()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	c.cur, c.key = item, k.of(item)
	return true, nil
}

// copyRun is the merge of a single run: nothing to compare, so each page is
// read straight into the writer's image of it and goes out as it is, by the
// same Read and Append calls in the same order as an item-by-item merge of
// that run (every page still verified on read and sealed on write).
func copyRun(w *pagefile.ItemWriter, run *pagefile.ItemFile) error {
	left := run.Count()
	for p := int64(0); p < run.NumPages(); p++ {
		if err := run.File().Read(run.StartPage()+p, w.Page()); err != nil {
			return err
		}
		n := min(left, int64(run.PerPage()))
		left -= n
		if err := w.PageDone(int(n)); err != nil {
			return err
		}
	}
	return w.Flush()
}

// mergeHeap is a typed binary min-heap of run cursors ordered by their
// cached keys. Its sift procedures mirror container/heap's exactly, so ties
// between equal keys resolve in the order they always have and merge output
// stays byte-identical.
type mergeHeap struct {
	entries []*runCursor
}

func (h *mergeHeap) less(i, j int) bool { return h.entries[i].key < h.entries[j].key }

func (h *mergeHeap) init() {
	n := len(h.entries)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// down sifts entry i toward the leaves within the first n entries, using
// the same child-selection and termination rules as container/heap.down.
func (h *mergeHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
		i = j
	}
}

// pop removes the root (the minimum) as container/heap.Pop does: swap it
// with the last entry, sift the new root down over the shortened heap.
func (h *mergeHeap) pop() {
	n := len(h.entries) - 1
	h.entries[0], h.entries[n] = h.entries[n], h.entries[0]
	h.down(0, n)
	h.entries = h.entries[:n]
}

// fix restores the heap after the root's key advanced (container/heap.Fix
// at index 0: a sift-up from the root is a no-op, so only down is needed).
func (h *mergeHeap) fix() { h.down(0, len(h.entries)) }
