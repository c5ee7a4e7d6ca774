package pagefile

import (
	"fmt"
	"io"

	"sampleview/internal/iosim"
)

// ItemFile lays fixed-size items onto the pages of a File. Items never span
// pages; the tail of each page is padding. This is the layout used for heap
// files of records and for the temporary files of the external sorter.
type ItemFile struct {
	file      *File
	itemSize  int
	perPage   int
	startPage int64 // first page of the item region
	count     int64
}

// NewItemFile wraps f as an empty item file whose item region starts at the
// file's current end, so headers already written are preserved.
func NewItemFile(f *File, itemSize int) *ItemFile {
	return wrapItemFile(f, itemSize, f.NumPages(), 0)
}

// ItemRangeError reports an OpenItemFile item region that does not fit the
// underlying file: the region's pages, as implied by startPage and count,
// must all exist at open time rather than surfacing as ErrPageOutOfRange on
// the first read of a missing page.
type ItemRangeError struct {
	StartPage int64 // first page of the requested region
	Pages     int64 // pages the requested items occupy
	NumPages  int64 // pages actually in the file
}

func (e *ItemRangeError) Error() string {
	return fmt.Sprintf("pagefile: item region [%d,%d) outside file of %d pages",
		e.StartPage, e.StartPage+e.Pages, e.NumPages)
}

// OpenItemFile wraps f as an item file holding count items whose item
// region starts at page startPage. It validates the region against the
// file's current page count and returns an *ItemRangeError if any item
// would live on a page the file does not have.
func OpenItemFile(f *File, itemSize int, startPage, count int64) (*ItemFile, error) {
	t := wrapItemFile(f, itemSize, startPage, count)
	if n := f.NumPages(); startPage < 0 || count < 0 || startPage+t.NumPages() > n {
		return nil, &ItemRangeError{StartPage: startPage, Pages: t.NumPages(), NumPages: n}
	}
	return t, nil
}

// wrapItemFile builds the ItemFile wrapper. It panics if itemSize does not
// fit a page, which indicates a programming error at layout-definition
// time (item sizes are compile-time constants throughout the repository).
func wrapItemFile(f *File, itemSize int, startPage, count int64) *ItemFile {
	if itemSize <= 0 || itemSize > f.PageSize() {
		panic(fmt.Sprintf("pagefile: item size %d invalid for page size %d", itemSize, f.PageSize()))
	}
	return &ItemFile{
		file:      f,
		itemSize:  itemSize,
		perPage:   f.PageSize() / itemSize,
		startPage: startPage,
		count:     count,
	}
}

// File returns the underlying page file.
func (t *ItemFile) File() *File { return t.file }

// OnClock returns a view of the item file whose I/O is charged to the given
// per-stream clock. The view shares the backing pages but snapshots the item
// count: items appended through one view are not visible through another, so
// writers should hand back their final count (or the caller should rewrap
// with OpenItemFile) once construction is done.
func (t *ItemFile) OnClock(c *iosim.Clock) *ItemFile {
	v := *t
	v.file = t.file.OnClock(c)
	return &v
}

// ItemSize returns the size of one item in bytes.
func (t *ItemFile) ItemSize() int { return t.itemSize }

// PerPage returns how many items fit on one page.
func (t *ItemFile) PerPage() int { return t.perPage }

// Count returns the number of items in the file.
func (t *ItemFile) Count() int64 { return t.count }

// NumPages returns the number of pages the items occupy.
func (t *ItemFile) NumPages() int64 {
	return (t.count + int64(t.perPage) - 1) / int64(t.perPage)
}

// StartPage returns the first page of the item region.
func (t *ItemFile) StartPage() int64 { return t.startPage }

// locate returns the page index and in-page byte offset of item i.
func (t *ItemFile) locate(i int64) (page int64, off int) {
	return t.startPage + i/int64(t.perPage), int(i%int64(t.perPage)) * t.itemSize
}

// Get reads item i into dst via a direct (uncached) page read, using a
// recycled page buffer rather than allocating one per call.
func (t *ItemFile) Get(i int64, dst []byte) error {
	if i < 0 || i >= t.count {
		return fmt.Errorf("pagefile: item %d out of range [0,%d)", i, t.count)
	}
	page, off := t.locate(i)
	buf := t.file.PageBuf()
	defer t.file.PutPageBuf(buf)
	if err := t.file.Read(page, buf); err != nil {
		return err
	}
	copy(dst[:t.itemSize], buf[off:off+t.itemSize])
	return nil
}

// GetPooled reads item i into dst through the given buffer pool.
func (t *ItemFile) GetPooled(pool *Pool, i int64, dst []byte) error {
	if i < 0 || i >= t.count {
		return fmt.Errorf("pagefile: item %d out of range [0,%d)", i, t.count)
	}
	page, off := t.locate(i)
	buf := t.file.PageBuf()
	defer t.file.PutPageBuf(buf)
	if err := pool.ReadInto(t.file, page, buf); err != nil {
		return err
	}
	copy(dst[:t.itemSize], buf[off:off+t.itemSize])
	return nil
}

// burstPages is how many pages ItemWriter and ItemReader buffer: bursts
// amortize one disk seek over several page transfers, the way any real
// scan/copy pass allocates its buffers. Construction passes that read one
// file while writing another would otherwise seek on every page.
const burstPages = 8

// ItemWriter appends items to an ItemFile, buffering several pages and
// writing them in one sequential burst.
type ItemWriter struct {
	t    *ItemFile
	buf  []byte // burstPages worth of page images
	page int    // pages completed in buf
	n    int    // items in the current page
}

// NewWriter returns a writer that appends to t. Only one writer should be
// active for a file at a time, the item region must be the last region of
// the underlying file, and appending may only resume on a page boundary.
// It panics if the item region ends mid-page or is not the file's final
// region, both of which indicate a programming error in layout sequencing.
func (t *ItemFile) NewWriter() *ItemWriter {
	if t.count%int64(t.perPage) != 0 {
		panic(fmt.Sprintf("pagefile: cannot append to item file ending mid-page (%d items, %d per page)", t.count, t.perPage))
	}
	if t.file.NumPages() != t.startPage+t.NumPages() {
		panic("pagefile: item region is not at the end of the file")
	}
	return &ItemWriter{t: t, buf: make([]byte, burstPages*t.file.PageSize())}
}

// Write appends one item (exactly ItemSize bytes of it are consumed).
func (w *ItemWriter) Write(item []byte) error {
	ps := w.t.file.PageSize()
	off := w.page*ps + w.n*w.t.itemSize
	copy(w.buf[off:], item[:w.t.itemSize])
	w.n++
	w.t.count++
	if w.n == w.t.perPage {
		w.n = 0
		w.page++
		if w.page == burstPages {
			return w.flushBurst(false)
		}
	}
	return nil
}

// flushBurst writes the buffered pages consecutively (one seek, then
// sequential transfers). With final set, a trailing partial page is
// zero-padded and written too.
func (w *ItemWriter) flushBurst(final bool) error {
	ps := w.t.file.PageSize()
	pages := w.page
	if final && w.n > 0 {
		// Zero the unused tail so partially filled pages are deterministic.
		off := w.page*ps + w.n*w.t.itemSize
		for i := off; i < (w.page+1)*ps; i++ {
			w.buf[i] = 0
		}
		pages++
	}
	for p := 0; p < pages; p++ {
		if _, err := w.t.file.Append(w.buf[p*ps : (p+1)*ps]); err != nil {
			return err
		}
	}
	w.page = 0
	if final {
		w.n = 0
	}
	return nil
}

// Flush writes any buffered pages, padding the last partial one. It must
// be called once after the last Write; the writer must not be used
// afterwards.
func (w *ItemWriter) Flush() error { return w.flushBurst(true) }

// ItemReader scans an ItemFile sequentially, reading ahead several pages
// per seek.
type ItemReader struct {
	t      *ItemFile
	burst  int64
	buf    []byte
	loaded int64 // first page currently in the buffer, -1 if none
	pages  int64 // pages currently in the buffer
	pos    int64 // next item index
}

// NewReader returns a sequential reader positioned at item 0.
func (t *ItemFile) NewReader() *ItemReader { return t.NewReaderAt(0) }

// NewReaderAt returns a sequential reader positioned at item start.
func (t *ItemFile) NewReaderAt(start int64) *ItemReader {
	return t.NewReaderBurst(start, burstPages)
}

// NewReaderBurst returns a sequential reader with an explicit read-ahead
// burst. Consumers that surface records to a clock-sensitive caller (the
// permuted-file sampler) use burst 1 so that a record becomes available
// as soon as its own page has been transferred; bulk passes keep the
// default burst.
func (t *ItemFile) NewReaderBurst(start int64, pages int) *ItemReader {
	// A burst never spans more than the region holds from start on, so the
	// buffer of a reader over a small region is small too.
	pages = max(1, min(pages, int(t.NumPages()-start/int64(t.perPage))))
	return &ItemReader{t: t, burst: int64(pages), buf: make([]byte, pages*t.file.PageSize()), loaded: -1, pos: start}
}

// Pos returns the index of the next item the reader will return.
func (r *ItemReader) Pos() int64 { return r.pos }

// Next returns the next item, or io.EOF after the last one. The returned
// slice aliases the reader's buffer and is valid until the next call.
func (r *ItemReader) Next() ([]byte, error) {
	if r.pos >= r.t.count {
		return nil, io.EOF
	}
	page, off := r.t.locate(r.pos)
	if r.loaded < 0 || page < r.loaded || page >= r.loaded+r.pages {
		last := r.t.startPage + r.t.NumPages() - 1
		n := r.burst
		if m := last - page + 1; n > m {
			n = m
		}
		ps := r.t.file.PageSize()
		for p := int64(0); p < n; p++ {
			if err := r.t.file.Read(page+p, r.buf[int(p)*ps:]); err != nil {
				return nil, err
			}
		}
		r.loaded = page
		r.pages = n
	}
	r.pos++
	base := int((page - r.loaded)) * r.t.file.PageSize()
	return r.buf[base+off : base+off+r.t.itemSize], nil
}
