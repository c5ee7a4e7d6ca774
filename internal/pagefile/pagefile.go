// Package pagefile provides page-oriented storage charged against a
// simulated disk (internal/iosim), an LRU buffer pool, and fixed-size item
// files layered on pages. Every index structure in this repository performs
// its I/O through this package so that the benchmark harness can observe the
// exact access pattern each algorithm generates.
//
// Two backends are provided: an in-memory backend used by tests and
// benchmarks, and an OS-file backend used by the command-line tools so that
// built sample views persist on real disk. The simulated clock is charged
// identically for both.
package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"sampleview/internal/iosim"
)

// ErrPageOutOfRange is returned when a page index is outside the file.
var ErrPageOutOfRange = errors.New("pagefile: page index out of range")

// Backend stores raw pages. Implementations do not charge simulated time;
// File does. Backends must support concurrent ReadPage calls and concurrent
// ReadPage/WritePage calls to distinct pages; WritePage calls that extend
// the backend require external synchronization.
type Backend interface {
	// ReadPage copies the leading len(dst) bytes of page i into dst (at most
	// one page long).
	ReadPage(i int64, dst []byte) error
	// WritePage stores src (exactly one page long) as page i, extending the
	// backend if i is the current page count.
	WritePage(i int64, src []byte) error
	// NumPages returns the number of pages currently stored.
	NumPages() int64
	// Close releases backend resources.
	Close() error
}

// viewBackend is implemented by backends that can expose a stored frame as
// a slice of process memory without copying (the mmap backend's read-only
// mapping, the memory backend's page store). PageView returns the frame of
// page i and true, or false when the page cannot be served zero-copy (for
// the mmap backend: pages appended after the mapping was established).
// The returned slice stays valid until Close; callers must treat it as
// read-only and must not hold it across a WritePage of the same page.
type viewBackend interface {
	PageView(i int64) ([]byte, bool)
}

// File is a page file on a simulated disk. Concurrent Reads are safe;
// writers require external synchronization (a file is written by one
// goroutine during construction and read-only afterwards).
//
// Accesses are charged to the file's charger: the shared Sim by default, or
// a private per-stream Clock for views obtained with OnClock.
type File struct {
	sim      *iosim.Sim
	charge   iosim.Charger
	id       iosim.FileID
	pageSize int   // payload bytes per page (physical page minus header)
	physOff  int64 // physical page of logical page 0 (1 past a superblock)
	backend  Backend
	// bufs recycles page-sized scratch buffers (Get, readLeaf and friends);
	// shared across OnClock views of the same file.
	bufs *bufPool
	// frames recycles physical-frame scratch buffers for the checksum
	// encode/verify paths.
	frames *bufPool
}

// bufPool is a bounded free list of page buffers. A plain sync.Pool of
// []byte would box the slice header into an interface on every Put,
// costing one small heap allocation per recycle on the sampler hot path;
// the explicit list keeps steady-state gets and puts allocation-free.
// The list is striped: every page read of every stream of a file passes
// through this pool, so a single mutex would serialize otherwise
// independent streams.
type bufPool struct {
	ps      int
	next    atomic.Uint32 // round-robin stripe cursor
	stripes [bufStripes]bufStripe
}

type bufStripe struct {
	mu   sync.Mutex
	free [][]byte // guarded by mu
	// Pad the stripe to its own cache line so neighbouring stripe locks do
	// not false-share.
	_ [64 - 8]byte
}

// bufStripes is the stripe count (power of two for cheap masking) and
// maxFreePerStripe bounds each stripe's free list, keeping the total
// buffers retained per file at 64 — the same bound the pool had when it
// was a single list (with 8 KB pages: 512 KB).
const (
	bufStripes       = 8
	maxFreePerStripe = 8
)

// get starts at the stripe the most recent put filled (likely non-empty,
// and a different stripe per concurrent putter) and falls back to scanning
// the rest before allocating, so buffers are only ever allocated when the
// whole pool is genuinely drained.
func (p *bufPool) get() []byte {
	home := p.next.Load()
	for k := uint32(0); k < bufStripes; k++ {
		s := &p.stripes[(home+k)&(bufStripes-1)]
		s.mu.Lock()
		if n := len(s.free); n > 0 {
			b := s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
			s.mu.Unlock()
			return b
		}
		s.mu.Unlock()
	}
	return make([]byte, p.ps)
}

// put advances the cursor so successive puts (and the gets chasing them)
// spread across stripes; a full home stripe overflows into the next ones
// before the buffer is dropped.
func (p *bufPool) put(b []byte) {
	home := p.next.Add(1)
	for k := uint32(0); k < bufStripes; k++ {
		s := &p.stripes[(home+k)&(bufStripes-1)]
		s.mu.Lock()
		if len(s.free) < maxFreePerStripe {
			s.free = append(s.free, b)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
}

// newFile wires a File over backend; physOff is the physical page index of
// logical page 0.
func newFile(sim *iosim.Sim, backend Backend, physOff int64) *File {
	phys := sim.Model().PageSize
	return &File{
		sim:      sim,
		charge:   sim,
		id:       sim.Register(),
		pageSize: phys - frameHdrSize,
		physOff:  physOff,
		backend:  backend,
		bufs:     &bufPool{ps: phys - frameHdrSize},
		frames:   &bufPool{ps: phys},
	}
}

// NewMem creates an empty in-memory page file on sim. Memory files use the
// v2 checksummed page format but carry no superblock.
func NewMem(sim *iosim.Sim) *File {
	return NewOn(sim, &memBackend{pageSize: sim.Model().PageSize})
}

// NewOn creates a page file over a caller-supplied backend holding no pages
// yet, laid out like a memory file (no superblock). Tests use it to count or
// perturb the raw page I/O beneath a File.
func NewOn(sim *iosim.Sim, b Backend) *File { return newFile(sim, b, 0) }

// Create creates (or truncates) an OS-backed v2 page file at path on sim,
// writing its superblock.
func Create(sim *iosim.Sim, path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: create %s: %w", path, err)
	}
	b := &osBackend{f: f, pageSize: sim.Model().PageSize}
	if err := writeSuper(b, sim.Model().PageSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: create %s: %w", path, err)
	}
	return newFile(sim, b, 1), nil
}

// Open opens an existing OS-backed page file at path on sim. The file size
// must be a whole number of pages and its first page must carry the v2
// superblock (anything else is refused with a *FormatError); every page is
// verified against its checksum header on every read. The raw-I/O backend
// is BackendDefault; use OpenWith to choose one explicitly.
func Open(sim *iosim.Sim, path string) (*File, error) {
	return OpenWith(sim, path, OpenOptions{})
}

// OnClock returns a view of the file whose accesses are charged to the
// given per-stream clock instead of the shared Sim. The view shares the
// backing pages; it is how concurrent streams and construction workers keep
// deterministic single-stream cost accounting.
func (f *File) OnClock(c *iosim.Clock) *File {
	v := *f
	v.charge = c
	return &v
}

// PageSize returns the usable page payload size in bytes. Pages reserve a
// small in-page checksum header, so this is slightly smaller than the disk
// model's physical page size; every layer above derives its per-page
// capacities from this value.
func (f *File) PageSize() int { return f.pageSize }

// NumPages returns the number of logical pages in the file.
func (f *File) NumPages() int64 {
	n := f.backend.NumPages() - f.physOff
	if n < 0 {
		return 0
	}
	return n
}

// Sim returns the simulated disk this file lives on.
func (f *File) Sim() *iosim.Sim { return f.sim }

// Read reads logical page i into dst (at least one page long), charging the
// clock. Under an active fault plan each attempt — the first read, retries
// of transient failures, and rereads after checksum mismatches — is charged
// like the real access it models, up to the plan's attempt budget. Checksum
// verification runs on every read; failures that outlive the budget surface
// as *TransientError, *DeadPageError or *CorruptPageError.
func (f *File) Read(i int64, dst []byte) error {
	_, err := f.readPage(i, dst, false, wholePage, 0)
	return err
}

// ReadPayload reads logical page i and returns its payload bytes, charging
// the clock exactly as Read does. When the backend can expose the stored
// frame as stable process memory (mmap, memory backend) and no fault
// injection needs to mutate the bytes, the returned slice aliases the
// backend's frame and no copy is made; otherwise the payload is copied into
// dst (at least one page long) and a sub-slice of dst is returned. Callers
// must treat the result as read-only; a zero-copy result stays valid until
// the file is closed.
func (f *File) ReadPayload(i int64, dst []byte) ([]byte, error) {
	return f.readPage(i, dst, true, wholePage, 0)
}

// ReadPrefix returns the first n payload bytes of logical page i, charging
// the clock and running the attempt loop exactly as Read does — a prefix
// read costs the simulated disk a whole page and meets the same faults —
// but moving only the page header and those n bytes: one positional read of
// that length straight into dst (at least one page long), or a view of the
// backend's frame under the rules of ReadPayload. The bytes are accepted iff
// the header carries the page's number and CRC32-C(payload[:n]) == want,
// where want was computed (UpdateCRC) when the page was written and is kept
// by the caller outside the page; the whole-page checksum is not consulted,
// so damage past the prefix goes unseen here and is left to CheckPage. With
// n == 0 nothing is fetched: the access is charged and may fault, no more.
func (f *File) ReadPrefix(i int64, dst []byte, n int, want uint32) ([]byte, error) {
	return f.readPage(i, dst, true, n, want)
}

// wholePage is readPage's prefix length for "the whole frame, verified
// against the header's checksum".
const wholePage = -1

// readPage is the one fault/attempt loop behind every read entry. Each
// attempt fetches the whole frame (prefix == wholePage) or header + prefix
// payload bytes checked against want.
func (f *File) readPage(i int64, dst []byte, zerocopy bool, prefix int, want uint32) ([]byte, error) {
	n := f.NumPages()
	if i < 0 || i >= n {
		return nil, fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, i, n)
	}
	phys := i + f.physOff
	budget := f.charge.FaultPlan().Attempts()
	var sticky, transient bool
	var corrupt *CorruptPageError
	for a := 0; a < budget; a++ {
		flt := f.faultFor(phys)
		f.charge.ReadPage(f.id, phys)
		if flt.Sticky {
			sticky = true
			continue
		}
		if flt.Transient {
			transient = true
			continue
		}
		var payload []byte
		var err error
		if prefix == wholePage {
			payload, err = f.readFrame(phys, i, flt, dst, zerocopy)
		} else {
			payload, err = f.readFramePrefix(phys, i, flt, dst, prefix, want)
		}
		if err == nil {
			return payload, nil
		}
		var cpe *CorruptPageError
		if errors.As(err, &cpe) {
			corrupt = cpe
			if a+1 < budget {
				f.charge.NoteFault(iosim.FaultReread)
			}
			continue
		}
		return nil, err
	}
	switch {
	case sticky:
		f.charge.NoteFault(iosim.FaultDead)
		return nil, &DeadPageError{Page: i, Attempts: budget}
	case corrupt != nil:
		f.charge.NoteFault(iosim.FaultCorrupt)
		return nil, corrupt
	case transient:
		return nil, &TransientError{Page: i, Attempts: budget}
	}
	return nil, &TransientError{Page: i, Attempts: budget}
}

// view returns the backend's stored frame of physical page phys when it can
// be used in place: the backend exposes stable memory and no injected bit
// rot needs to mutate the bytes (the flip must never scribble on a
// backend's stored frame, so bit rot always forces the copy path).
func (f *File) view(phys int64, flt iosim.Fault) ([]byte, bool) {
	if vb, ok := f.backend.(viewBackend); ok && flt.FlipBit < 0 {
		return vb.PageView(phys)
	}
	return nil, false
}

// readFrame performs one uncharged read attempt of physical page phys
// (logical page i): fetch the frame, apply any injected bit rot, verify the
// checksum, and produce the payload — a view of the backend's frame when
// zerocopy is allowed and safe, a copy into dst otherwise.
func (f *File) readFrame(phys, i int64, flt iosim.Fault, dst []byte, zerocopy bool) ([]byte, error) {
	if frame, ok := f.view(phys, flt); ok {
		got, want, ok := verifyFrame(frame, phys)
		if !ok {
			return nil, &CorruptPageError{Page: i, Got: got, Want: want}
		}
		payload := frame[frameHdrSize : frameHdrSize+f.pageSize : frameHdrSize+f.pageSize]
		if zerocopy {
			return payload, nil
		}
		copy(dst[:f.pageSize], payload)
		return dst[:f.pageSize], nil
	}
	frame := f.frames.get()
	defer f.frames.put(frame)
	if err := f.backend.ReadPage(phys, frame); err != nil {
		return nil, err
	}
	if flt.FlipBit >= 0 {
		flipBit(frame, flt.FlipBit)
	}
	got, want, ok := verifyFrame(frame, phys)
	if !ok {
		return nil, &CorruptPageError{Page: i, Got: got, Want: want}
	}
	copy(dst[:f.pageSize], frame[frameHdrSize:])
	return dst[:f.pageSize], nil
}

// readFramePrefix is readFrame moving and verifying only header + n payload
// bytes. An attempt with injected bit rot is a whole-page attempt (the flip
// lands anywhere in the frame and must fail it exactly as it fails Read),
// as is one whose header and prefix do not fit dst.
func (f *File) readFramePrefix(phys, i int64, flt iosim.Fault, dst []byte, n int, want uint32) ([]byte, error) {
	if flt.FlipBit >= 0 || frameHdrSize+n > len(dst) {
		payload, err := f.readFrame(phys, i, flt, dst, true)
		if err != nil {
			return nil, err
		}
		return payload[:n], nil
	}
	if n == 0 {
		return dst[:0], nil
	}
	frame, ok := f.view(phys, flt)
	if !ok {
		frame = dst[:frameHdrSize+n]
		if err := f.backend.ReadPage(phys, frame); err != nil {
			return nil, err
		}
	}
	payload := frame[frameHdrSize : frameHdrSize+n : frameHdrSize+n]
	got := UpdateCRC(0, payload)
	if got != want || binary.LittleEndian.Uint32(frame[4:8]) != uint32(phys) {
		return nil, &CorruptPageError{Page: i, Got: got, Want: want}
	}
	return payload, nil
}

// Write writes logical page i from src (at least one page long), charging
// the clock and sealing the page with its checksum header. Writing page
// NumPages() extends the file by one page.
func (f *File) Write(i int64, src []byte) error {
	n := f.NumPages()
	if i < 0 || i > n {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, i, n)
	}
	phys := i + f.physOff
	f.charge.WritePage(f.id, phys)
	frame := f.frames.get()
	defer f.frames.put(frame)
	copy(frame[frameHdrSize:], src[:f.pageSize])
	encodeFrame(frame, phys)
	return f.backend.WritePage(phys, frame)
}

// PageBuf returns a page-sized scratch buffer from the file's reuse pool.
// Return it with PutPageBuf when done; buffers flow freely between
// goroutines and OnClock views.
func (f *File) PageBuf() []byte { return f.bufs.get() }

// PutPageBuf recycles a buffer obtained from PageBuf.
func (f *File) PutPageBuf(b []byte) {
	if cap(b) >= f.pageSize {
		f.bufs.put(b[:f.pageSize])
	}
}

// Append writes src as a new page at the end of the file and returns its
// page index.
func (f *File) Append(src []byte) (int64, error) {
	i := f.NumPages()
	if err := f.Write(i, src); err != nil {
		return 0, err
	}
	return i, nil
}

// Sync forces every written page to durable storage: one barrier is charged
// to the simulated clock (failing after a simulated power cut, before any
// real I/O), then the backend's fsync runs if it has one. Layers that
// install metadata pointing at a freshly written file (the LSM manifest)
// call this first so the referenced bytes are never softer than the
// reference.
func (f *File) Sync() error {
	if err := f.sim.Sync(); err != nil {
		return err
	}
	type syncer interface{ Sync() error }
	if s, ok := f.backend.(syncer); ok {
		if err := s.Sync(); err != nil {
			return fmt.Errorf("pagefile: sync: %w", err)
		}
	}
	return nil
}

// Close releases the backing storage.
func (f *File) Close() error { return f.backend.Close() }

// memBackend stores pages in memory.
type memBackend struct {
	pageSize int
	pages    [][]byte
}

func (m *memBackend) ReadPage(i int64, dst []byte) error {
	copy(dst, m.pages[i])
	return nil
}

func (m *memBackend) WritePage(i int64, src []byte) error {
	if i == int64(len(m.pages)) {
		p := make([]byte, m.pageSize)
		copy(p, src)
		m.pages = append(m.pages, p)
		return nil
	}
	copy(m.pages[i], src)
	return nil
}

func (m *memBackend) NumPages() int64 { return int64(len(m.pages)) }
func (m *memBackend) Close() error    { m.pages = nil; return nil }

// PageView exposes the stored page directly: memory pages are written once
// during construction and read-only afterwards, so views handed out on the
// read path are stable.
func (m *memBackend) PageView(i int64) ([]byte, bool) {
	if i < 0 || i >= int64(len(m.pages)) {
		return nil, false
	}
	return m.pages[i], true
}

// osBackend stores pages in an operating-system file.
type osBackend struct {
	f        *os.File
	pageSize int
	npages   int64
}

func (o *osBackend) ReadPage(i int64, dst []byte) error {
	_, err := o.f.ReadAt(dst, i*int64(o.pageSize))
	if err != nil {
		return fmt.Errorf("pagefile: read page %d: %w", i, err)
	}
	return nil
}

func (o *osBackend) WritePage(i int64, src []byte) error {
	if _, err := o.f.WriteAt(src, i*int64(o.pageSize)); err != nil {
		return fmt.Errorf("pagefile: write page %d: %w", i, err)
	}
	if i == o.npages {
		o.npages++
	}
	return nil
}

func (o *osBackend) NumPages() int64 { return o.npages }
func (o *osBackend) Sync() error     { return o.f.Sync() }
func (o *osBackend) Close() error    { return o.f.Close() }
