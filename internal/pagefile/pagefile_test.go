package pagefile

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"
	"time"

	"sampleview/internal/iosim"
)

func testSim() *iosim.Sim {
	return iosim.New(iosim.Model{
		RandomRead:      10 * time.Millisecond,
		SequentialRead:  time.Millisecond,
		RandomWrite:     10 * time.Millisecond,
		SequentialWrite: time.Millisecond,
		PageSize:        512,
	})
}

func fill(n int, b byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestMemFileReadWrite(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	if _, err := f.Append(fill(512, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(fill(512, 2)); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 2 {
		t.Fatalf("NumPages = %d", f.NumPages())
	}
	buf := make([]byte, 512)
	if err := f.Read(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:f.PageSize()], fill(f.PageSize(), 2)) {
		t.Fatal("page 1 contents wrong")
	}
	if err := f.Write(0, fill(512, 9)); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatal("overwrite not visible")
	}
}

func TestReadOutOfRange(t *testing.T) {
	f := NewMem(testSim())
	buf := make([]byte, 512)
	if err := f.Read(0, buf); err == nil {
		t.Fatal("reading an empty file should fail")
	}
	if err := f.Write(5, buf); err == nil {
		t.Fatal("writing past the end+1 should fail")
	}
}

func TestOSBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.pf")
	sim := testSim()
	f, err := Create(sim, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 5; i++ {
		if _, err := f.Append(fill(512, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := Open(testSim(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.NumPages() != 5 {
		t.Fatalf("reopened NumPages = %d", g.NumPages())
	}
	buf := make([]byte, 512)
	for i := byte(0); i < 5; i++ {
		if err := g.Read(int64(i), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != i+1 || buf[g.PageSize()-1] != i+1 {
			t.Fatalf("page %d contents wrong: %d", i, buf[0])
		}
	}
}

func TestOpenRejectsRaggedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ragged")
	sim := testSim()
	f, err := Create(sim, path)
	if err != nil {
		t.Fatal(err)
	}
	f.Append(fill(512, 1))
	f.Close()
	// Open with a different page size so the size check fails.
	badSim := iosim.New(iosim.Model{
		RandomRead: time.Millisecond, SequentialRead: time.Millisecond,
		RandomWrite: time.Millisecond, SequentialWrite: time.Millisecond,
		PageSize: 500,
	})
	if _, err := Open(badSim, path); err == nil {
		t.Fatal("Open should reject a file that is not a whole number of pages")
	}
}

func TestFileChargesClock(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	f.Append(fill(512, 1))
	f.Append(fill(512, 2)) // sequential write
	start := sim.Now()
	buf := make([]byte, 512)
	f.Read(0, buf) // random (head after page 1)
	f.Read(1, buf) // sequential
	elapsed := sim.Now() - start
	want := 10*time.Millisecond + time.Millisecond
	if elapsed != want {
		t.Fatalf("read cost %v, want %v", elapsed, want)
	}
}

func TestPoolHitsAreFree(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	f.Append(fill(512, 7))
	pool := NewPool(4)
	data := make([]byte, f.PageSize())
	if err := pool.ReadInto(f, 0, data); err != nil {
		t.Fatal(err)
	}
	before := sim.Now()
	if err := pool.ReadInto(f, 0, data); err != nil {
		t.Fatal(err)
	}
	if sim.Now() != before {
		t.Fatal("pool hit charged simulated time")
	}
	if data[0] != 7 {
		t.Fatal("pool returned wrong data")
	}
	st := pool.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolEviction(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	for i := 0; i < 4; i++ {
		f.Append(fill(512, byte(i)))
	}
	pool := NewPool(2) // small pools use a single shard: exact global LRU
	buf := make([]byte, f.PageSize())
	pool.ReadInto(f, 0, buf)
	pool.ReadInto(f, 1, buf)
	pool.ReadInto(f, 2, buf) // evicts 0
	if pool.Contains(f, 0) {
		t.Fatal("page 0 should have been evicted")
	}
	if !pool.Contains(f, 1) || !pool.Contains(f, 2) {
		t.Fatal("pages 1,2 should be resident")
	}
	// Touch 1, then read 3: 2 is now the LRU victim.
	pool.ReadInto(f, 1, buf)
	pool.ReadInto(f, 3, buf)
	if pool.Contains(f, 2) || !pool.Contains(f, 1) {
		t.Fatal("LRU order not respected")
	}
	if pool.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d", pool.Stats().Evictions)
	}
}

// TestPoolReadIntoCopiesOut: ReadInto hands the caller a copy, never a cached
// frame, so scribbling over dst after a miss, after a hit, or after the page
// was evicted and faulted back in leaves what the pool serves next unchanged.
func TestPoolReadIntoCopiesOut(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	for i := 0; i < 3; i++ {
		f.Append(fill(512, byte(i+1)))
	}
	pool := NewPool(2) // one shard: reading pages 1 and 2 evicts page 0
	dst := make([]byte, f.PageSize())
	readScribbleReread := func(page int64, when string) {
		t.Helper()
		if err := pool.ReadInto(f, page, dst); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			dst[i] = 0xee
		}
		got := make([]byte, f.PageSize())
		if err := pool.ReadInto(f, page, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill(f.PageSize(), byte(page+1))) {
			t.Fatalf("page %d after scribbling over dst %s: the pool served the scribble", page, when)
		}
	}
	readScribbleReread(0, "after a miss")
	readScribbleReread(0, "after a hit")
	readScribbleReread(1, "after a miss")
	readScribbleReread(2, "after a miss")
	if pool.Contains(f, 0) {
		t.Fatal("page 0 should have been evicted")
	}
	readScribbleReread(0, "after an eviction")
	if st := pool.Stats(); st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 4 misses and 2 evictions", st)
	}
}

func TestPoolZeroCapacity(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	f.Append(fill(512, 1))
	pool := NewPool(0)
	buf := make([]byte, f.PageSize())
	pool.ReadInto(f, 0, buf)
	pool.ReadInto(f, 0, buf)
	if st := pool.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("zero-capacity pool should never hit: %+v", st)
	}
}

func TestPoolReset(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	f.Append(fill(512, 1))
	pool := NewPool(2)
	pool.ReadInto(f, 0, make([]byte, f.PageSize()))
	pool.Reset()
	if pool.Len() != 0 || pool.Stats() != (PoolStats{}) {
		t.Fatal("Reset did not clear the pool")
	}
}

func TestItemFileWriteRead(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	itf := NewItemFile(f, 100) // 5 items per 512-byte page
	w := itf.NewWriter()
	for i := 0; i < 12; i++ {
		item := fill(100, byte(i+1))
		if err := w.Write(item); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if itf.Count() != 12 {
		t.Fatalf("Count = %d", itf.Count())
	}
	if itf.NumPages() != 3 {
		t.Fatalf("NumPages = %d", itf.NumPages())
	}

	r := itf.NewReader()
	for i := 0; i < 12; i++ {
		item, err := r.Next()
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if item[0] != byte(i+1) || item[99] != byte(i+1) {
			t.Fatalf("item %d contents wrong", i)
		}
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("reader should be exhausted")
	}
}

func TestItemFileGet(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	itf := NewItemFile(f, 100)
	w := itf.NewWriter()
	for i := 0; i < 7; i++ {
		w.Write(fill(100, byte(10+i)))
	}
	w.Flush()
	dst := make([]byte, 100)
	if err := itf.Get(6, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 16 {
		t.Fatalf("Get(6) = %d", dst[0])
	}
	if err := itf.Get(7, dst); err == nil {
		t.Fatal("Get past end should fail")
	}
	pool := NewPool(2)
	if err := itf.GetPooled(pool, 3, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 13 {
		t.Fatalf("GetPooled(3) = %d", dst[0])
	}
}

func TestItemReaderAt(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	itf := NewItemFile(f, 100)
	w := itf.NewWriter()
	for i := 0; i < 11; i++ {
		w.Write(fill(100, byte(i)))
	}
	w.Flush()
	r := itf.NewReaderAt(7) // mid-page start
	item, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if item[0] != 7 {
		t.Fatalf("NewReaderAt(7) first item = %d", item[0])
	}
	if r.Pos() != 8 {
		t.Fatalf("Pos = %d", r.Pos())
	}
}

func TestItemScanIsSequential(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	itf := NewItemFile(f, 100)
	w := itf.NewWriter()
	for i := 0; i < 50; i++ { // 10 pages
		w.Write(fill(100, 1))
	}
	w.Flush()
	base := sim.Counters()
	r := itf.NewReader()
	for {
		if _, err := r.Next(); err != nil {
			break
		}
	}
	c := sim.Counters()
	randomReads := c.RandomReads - base.RandomReads
	seqReads := c.SequentialReads - base.SequentialReads
	if randomReads != 1 || seqReads != 9 {
		t.Fatalf("scan did %d random + %d sequential reads, want 1+9", randomReads, seqReads)
	}
}

func TestItemFileWithHeaderOffset(t *testing.T) {
	// Structures write a header page first; the item region starts after
	// it and locate() must account for the offset.
	sim := testSim()
	f := NewMem(sim)
	header := fill(512, 0xAA)
	if _, err := f.Append(header); err != nil {
		t.Fatal(err)
	}
	itf := NewItemFile(f, 100) // region starts at page 1
	if itf.StartPage() != 1 {
		t.Fatalf("StartPage = %d", itf.StartPage())
	}
	w := itf.NewWriter()
	for i := 0; i < 9; i++ {
		w.Write(fill(100, byte(i+1)))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Header page untouched.
	buf := make([]byte, 512)
	if err := f.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAA {
		t.Fatal("header page overwritten by item writes")
	}
	// Random and sequential access respect the offset.
	dst := make([]byte, 100)
	if err := itf.Get(7, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 8 {
		t.Fatalf("Get(7) = %d", dst[0])
	}
	reopened, err := OpenItemFile(f, 100, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := reopened.NewReader()
	for i := 0; i < 9; i++ {
		item, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if item[0] != byte(i+1) {
			t.Fatalf("item %d = %d", i, item[0])
		}
	}
}

func TestItemWriterGuards(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	itf := NewItemFile(f, 100)
	w := itf.NewWriter()
	w.Write(fill(100, 1))
	w.Flush() // 1 item: region ends mid-page
	defer func() {
		if recover() == nil {
			t.Fatal("NewWriter on a mid-page region should panic")
		}
	}()
	itf.NewWriter()
}

// TestReaderBufferClampedToRegion: a sequential reader's read-ahead buffer
// holds no more pages than the region has from its start position on, so
// scanning a two-page region does not allocate the eight-page burst.
func TestReaderBufferClampedToRegion(t *testing.T) {
	sim := testSim()
	itf := NewItemFile(NewMem(sim), 16)
	w := itf.NewWriter()
	item := make([]byte, 16)
	for i := 0; i < 2*itf.PerPage()+1; i++ {
		if err := w.Write(item); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ps := itf.File().PageSize()
	for start, pages := range map[int64]int{0: 3, int64(itf.PerPage()): 2, int64(2 * itf.PerPage()): 1} {
		r := itf.NewReaderAt(start)
		if len(r.buf) != pages*ps {
			t.Fatalf("reader at item %d buffers %d bytes, the region has %d pages from there", start, len(r.buf), pages)
		}
		n := int64(0)
		for _, err := r.Next(); err == nil; _, err = r.Next() {
			n++
		}
		if n != itf.Count()-start {
			t.Fatalf("reader at item %d returned %d items, want %d", start, n, itf.Count()-start)
		}
	}
	if r := NewItemFile(NewMem(sim), 16).NewReader(); len(r.buf) != ps {
		t.Fatalf("reader over an empty region buffers %d bytes, want one page", len(r.buf))
	}
}

// TestItemPagesMoveWhole: copying an item file page by page (a Read straight
// into the writer's Page, then PageDone) yields the same pages, count and
// charges as copying it item by item, partial last page included; NextPage
// hands out the rest of a page from wherever the reader stands.
func TestItemPagesMoveWhole(t *testing.T) {
	build := func(sim *iosim.Sim) *ItemFile {
		itf := NewItemFile(NewMem(sim), 100) // 5 items per page
		w := itf.NewWriter()
		for i := 0; i < 23; i++ {
			if err := w.Write(fill(100, byte(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return itf
	}
	simA, simB := testSim(), testSim()
	a, b := build(simA), build(simB)

	byItem := NewItemFile(NewMem(simA), 100)
	w := byItem.NewWriter()
	ra := a.NewReader()
	for item, err := ra.Next(); err == nil; item, err = ra.Next() {
		if err := w.Write(item); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	byPage := NewItemFile(NewMem(simB), 100)
	w = byPage.NewWriter()
	for p, left := int64(0), b.Count(); p < b.NumPages(); p++ {
		if err := b.File().Read(p, w.Page()); err != nil {
			t.Fatal(err)
		}
		n := min(left, 5)
		left -= n
		if err := w.PageDone(int(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if byPage.Count() != 23 || byPage.NumPages() != 5 {
		t.Fatalf("page copy holds %d items on %d pages, want 23 on 5", byPage.Count(), byPage.NumPages())
	}
	if simA.Counters() != simB.Counters() || simA.Now() != simB.Now() {
		t.Fatalf("page copy charged %+v, item copy %+v", simB.Counters(), simA.Counters())
	}
	pa, pb := make([]byte, a.File().PageSize()), make([]byte, a.File().PageSize())
	for p := int64(0); p < 5; p++ {
		if err := byItem.File().Read(p, pa); err != nil {
			t.Fatal(err)
		}
		if err := byPage.File().Read(p, pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatalf("page %d differs between the item copy and the page copy", p)
		}
	}

	mid := b.NewReaderAt(7) // item 2 of page 1: the rest of that page is 3 items
	items, err := mid.NextPage()
	if err != nil || len(items) != 300 || items[0] != 8 || mid.Pos() != 10 {
		t.Fatalf("NextPage from item 7: %d bytes, first %d, pos %d, err %v", len(items), items[0], mid.Pos(), err)
	}
	if items, err = mid.NextPage(); err != nil || len(items) != 500 || items[0] != 11 {
		t.Fatalf("NextPage from item 10: %d bytes, first %d, err %v", len(items), items[0], err)
	}
	mid = b.NewReaderAt(20)
	if items, err = mid.NextPage(); err != nil || len(items) != 300 {
		t.Fatalf("NextPage on the partial last page: %d bytes, err %v", len(items), err)
	}
	if _, err = mid.NextPage(); err != io.EOF {
		t.Fatalf("NextPage past the end: %v", err)
	}
}

// TestWriterBurstHoldsOutputBack: a burst writer appends only at every
// hold-th completed page, and then only whole burstPages groups; Flush
// writes the rest, and the items read back in order.
func TestWriterBurstHoldsOutputBack(t *testing.T) {
	sim := testSim()
	itf := NewItemFile(NewMem(sim), 100) // 5 items per page
	w := itf.NewWriterBurst(3)
	onDisk := map[int]int64{8: 0, 9: 8, 17: 8, 18: 16, 20: 16} // completed pages -> pages appended
	for i := 0; i < 5*20+2; i++ {
		if err := w.Write(fill(100, byte(i))); err != nil {
			t.Fatal(err)
		}
		if want, ok := onDisk[(i+1)/5]; ok && (i+1)%5 == 0 && itf.File().NumPages() != want {
			t.Fatalf("after %d pages the file holds %d, want %d", (i+1)/5, itf.File().NumPages(), want)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if itf.File().NumPages() != 21 || itf.Count() != 102 {
		t.Fatalf("flushed file holds %d pages, %d items", itf.File().NumPages(), itf.Count())
	}
	r := itf.NewReader()
	for i := 0; i < 102; i++ {
		item, err := r.Next()
		if err != nil || item[0] != byte(i) || item[99] != byte(i) {
			t.Fatalf("item %d reads back wrong (err %v)", i, err)
		}
	}
	last := make([]byte, itf.File().PageSize())
	if err := itf.File().Read(20, last); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last[200:], make([]byte, len(last)-200)) {
		t.Fatal("the partial last page carries an earlier page's items past its own")
	}
}
