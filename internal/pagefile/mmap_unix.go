//go:build unix

package pagefile

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
)

// mmapAvailable reports whether this platform supports the mmap backend.
const mmapAvailable = true

// mmapBackend serves page reads from a read-only shared mapping established
// at open. Pages inside the mapping are exposed zero-copy through PageView;
// pages appended after open, and all writes, go through positional file I/O
// (MAP_SHARED keeps the mapping coherent with pwrite on the same file, so a
// later read of a rewritten mapped page sees the new bytes). The mapping is
// fixed for the file's lifetime — no remapping, so PageView results stay
// valid until Close.
type mmapBackend struct {
	f        *os.File
	pageSize int
	mapped   int64  // pages covered by the mapping; fixed after open
	mapping  []byte // fixed after open, nil when empty
	npages   atomic.Int64
}

// newMmapBackend maps path's current npages pages. An empty file maps
// nothing; every access falls back to positional I/O until pages exist.
func newMmapBackend(f *os.File, pageSize int, npages int64) (*mmapBackend, error) {
	b := &mmapBackend{f: f, pageSize: pageSize}
	b.npages.Store(npages)
	if npages > 0 {
		data, err := syscall.Mmap(int(f.Fd()), 0, int(npages)*pageSize, syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			return nil, fmt.Errorf("pagefile: mmap %s: %w", f.Name(), err)
		}
		b.mapping = data
		b.mapped = npages
	}
	return b, nil
}

// PageView returns the mapped frame of page i zero-copy, or false for pages
// outside the mapping (appended after open).
func (m *mmapBackend) PageView(i int64) ([]byte, bool) {
	if i < 0 || i >= m.mapped {
		return nil, false
	}
	off := i * int64(m.pageSize)
	return m.mapping[off : off+int64(m.pageSize) : off+int64(m.pageSize)], true
}

func (m *mmapBackend) ReadPage(i int64, dst []byte) error {
	if frame, ok := m.PageView(i); ok {
		copy(dst, frame)
		return nil
	}
	if _, err := m.f.ReadAt(dst, i*int64(m.pageSize)); err != nil {
		return fmt.Errorf("pagefile: read page %d: %w", i, err)
	}
	return nil
}

func (m *mmapBackend) WritePage(i int64, src []byte) error {
	if _, err := m.f.WriteAt(src, i*int64(m.pageSize)); err != nil {
		return fmt.Errorf("pagefile: write page %d: %w", i, err)
	}
	if i == m.npages.Load() {
		m.npages.Add(1)
	}
	return nil
}

func (m *mmapBackend) NumPages() int64 { return m.npages.Load() }

// Sync makes every page written so far durable: writes go through the file,
// not the read-only mapping, so the file's fsync covers them.
func (m *mmapBackend) Sync() error { return m.f.Sync() }

func (m *mmapBackend) Close() error {
	var err error
	if m.mapping != nil {
		err = syscall.Munmap(m.mapping)
		m.mapping = nil
		m.mapped = 0
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}
