package pagefile

import (
	"encoding/binary"
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

// WriteHeader writes page 0 of a file whose items start at page 1, appending
// it to an empty file: magic, then each field, as little-endian 64-bit words.
func WriteHeader(f *File, magic uint64, fields ...int64) error {
	page := make([]byte, f.PageSize())
	binary.LittleEndian.PutUint64(page, magic)
	for i, v := range fields {
		binary.LittleEndian.PutUint64(page[8+8*i:], uint64(v))
	}
	if f.NumPages() == 0 {
		_, err := f.Append(page)
		return err
	}
	return f.Write(0, page)
}

// ReadHeader reads the fields of the page 0 WriteHeader wrote with magic.
func ReadHeader(f *File, magic uint64, fields ...*int64) error {
	if f.NumPages() == 0 {
		return fmt.Errorf("empty file")
	}
	page := make([]byte, f.PageSize())
	if err := f.Read(0, page); err != nil {
		return err
	}
	if binary.LittleEndian.Uint64(page) != magic {
		return fmt.Errorf("bad magic")
	}
	for i, p := range fields {
		*p = int64(binary.LittleEndian.Uint64(page[8+8*i:]))
	}
	return nil
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

// burstPages is how many pages ItemWriter and ItemReader buffer: bursts
// amortize one disk seek over several page transfers, the way any real
// scan/copy pass allocates its buffers. Construction passes that read one
// file while writing another would otherwise seek on every page.
const burstPages = 8

// ItemWriter appends items to an ItemFile. It assembles page images in a
// ring and appends them in sequential groups of burstPages: each time hold
// more pages are complete (hold is 1 unless the writer came from
// NewWriterBurst), every whole group completed so far goes out, and the rest
// waits for the next such point or for Flush.
type ItemWriter struct {
	t        *ItemFile
	ring     []byte // hold+burstPages-1 page images
	hold     int
	done     int    // pages completed since the last Flush
	appended int    // of those, pages appended
	cur      []byte // image of page number done, the one being filled
	n        int    // bytes of items in cur
}

// NewWriter returns a writer that appends to t, under the rules (and the
// panics) of NewWriterBurst.
func (t *ItemFile) NewWriter() *ItemWriter { return t.NewWriterBurst(1) }

// NewWriterBurst returns a writer for a pass that alternates between
// refilling its inputs and writing: output is held back until pages pages of
// it are complete, so the appends of that span follow one another instead of
// interleaving, a page at a time, with the reads that produced them.
//
// Only one writer should be active for a file at a time, the item region
// must be the last region of the underlying file, and appending may only
// resume on a page boundary. It panics if the item region ends mid-page or
// is not the file's final region, both of which indicate a programming error
// in layout sequencing.
func (t *ItemFile) NewWriterBurst(pages int) *ItemWriter {
	if t.count%int64(t.perPage) != 0 {
		panic(fmt.Sprintf("pagefile: cannot append to item file ending mid-page (%d items, %d per page)", t.count, t.perPage))
	}
	if t.file.NumPages() != t.startPage+t.NumPages() {
		panic("pagefile: item region is not at the end of the file")
	}
	w := &ItemWriter{t: t, hold: pages, ring: make([]byte, (pages+burstPages-1)*t.file.PageSize())}
	w.cur = w.image(0)
	return w
}

// image returns the ring slot of page number p.
func (w *ItemWriter) image(p int) []byte {
	ps := w.t.file.PageSize()
	at := p % (len(w.ring) / ps) * ps
	return w.ring[at : at+ps]
}

// Write appends one item (exactly ItemSize bytes of it are consumed).
func (w *ItemWriter) Write(item []byte) error {
	w.n += copy(w.cur[w.n:], item[:w.t.itemSize])
	w.t.count++
	if w.n < w.t.perPage*w.t.itemSize {
		return nil
	}
	return w.nextPage()
}

// Page returns the image of the page being filled, for a caller that moves
// whole pages: with the writer on a page boundary, it fills the image itself
// (reads a page of another item file of the same item size straight into it)
// and calls PageDone.
func (w *ItemWriter) Page() []byte { return w.cur }

// PageDone records that the image Page returned now holds n items, packed
// from its start and zero after them. Fewer than PerPage only on the last
// page before Flush.
func (w *ItemWriter) PageDone(n int) error {
	w.t.count += int64(n)
	w.n = n * w.t.itemSize
	if n < w.t.perPage {
		return nil
	}
	return w.nextPage()
}

// nextPage completes the current page and, at every hold-th one, appends
// the whole groups completed so far.
func (w *ItemWriter) nextPage() error {
	w.n = 0
	w.done++
	w.cur = w.image(w.done)
	if w.done%w.hold != 0 {
		return nil
	}
	return w.appendTo(w.done / burstPages * burstPages)
}

// appendTo appends the completed pages before page number end, consecutively
// (one seek, then sequential transfers).
func (w *ItemWriter) appendTo(end int) error {
	for ; w.appended < end; w.appended++ {
		if _, err := w.t.file.Append(w.image(w.appended)); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes every buffered page, zero-padding the last partial one so
// partially filled pages are deterministic (its ring slot may hold an
// earlier page's items). It must be called after the last Write; a writer
// used again afterwards starts on a fresh page.
func (w *ItemWriter) Flush() error {
	if w.n > 0 {
		clear(w.cur[w.n:])
		w.done++
	}
	err := w.appendTo(w.done)
	w.done, w.appended, w.n = 0, 0, 0
	w.cur = w.image(0)
	return err
}

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
