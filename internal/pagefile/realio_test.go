package pagefile

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"sampleview/internal/iosim"
)

// writeTestFile creates a v2 page file on disk with n distinct pages and
// returns its path.
func writeTestFile(t *testing.T, sim *iosim.Sim, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "realio.pf")
	f, err := Create(sim, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := f.Append(fill(f.PageSize(), byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMmapBackendRoundTrip opens a v2 file through the mmap backend and
// checks reads, post-open writes (which extend past the fixed mapping and
// must fall back to positional I/O), and reopen.
func TestMmapBackendRoundTrip(t *testing.T) {
	if !mmapAvailable {
		t.Skip("mmap not available on this platform")
	}
	sim := testSim()
	path := writeTestFile(t, sim, 8)

	f, err := OpenWith(sim, path, OpenOptions{Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.backend.(*mmapBackend); !ok {
		t.Fatalf("backend is %T, want *mmapBackend", f.backend)
	}
	if f.NumPages() != 8 {
		t.Fatalf("mmap open misread the format: pages=%d", f.NumPages())
	}
	buf := make([]byte, f.PageSize())
	for i := int64(0); i < 8; i++ {
		if err := f.Read(i, buf); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if !bytes.Equal(buf, fill(f.PageSize(), byte(i+1))) {
			t.Fatalf("page %d contents wrong through mmap", i)
		}
	}

	// Appends after open land beyond the mapping: write path, then read back.
	idx, err := f.Append(fill(f.PageSize(), 0xAB))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Read(idx, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fill(f.PageSize(), 0xAB)) {
		t.Fatal("appended page corrupted through mmap backend")
	}
	// Overwrite a mapped page: MAP_SHARED must observe the pwrite.
	if err := f.Write(2, fill(f.PageSize(), 0xCD)); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fill(f.PageSize(), 0xCD)) {
		t.Fatal("overwrite of a mapped page not visible through the mapping")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := OpenWith(sim, path, OpenOptions{Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.NumPages() != 9 {
		t.Fatalf("reopen sees %d pages, want 9", g.NumPages())
	}
	if err := g.Read(idx, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fill(g.PageSize(), 0xAB)) {
		t.Fatal("appended page lost across reopen")
	}
}

// TestBackendsByteIdentical reads every page of one file through both
// backends — via Read and via the zero-copy ReadPayload — and demands
// byte-identical payloads and identical simulated charges.
func TestBackendsByteIdentical(t *testing.T) {
	simA, simB := testSim(), testSim()
	path := writeTestFile(t, simA, 16)

	a, err := OpenWith(simA, path, OpenOptions{Backend: BackendPread})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenWith(simB, path, OpenOptions{Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// A backend over a real file that cannot fsync would make File.Sync skip
	// the fsync without a word.
	for name, f := range map[string]*File{"pread": a, "mmap": b} {
		if _, ok := f.backend.(interface{ Sync() error }); !ok {
			t.Errorf("%s: backend %T has no Sync: File.Sync would skip the fsync", name, f.backend)
		}
		if err := f.Sync(); err != nil {
			t.Errorf("%s: Sync: %v", name, err)
		}
	}

	startA, startB := simA.Now(), simB.Now()
	bufA := make([]byte, a.PageSize())
	bufB := make([]byte, b.PageSize())
	for i := int64(0); i < 16; i++ {
		if err := a.Read(i, bufA); err != nil {
			t.Fatal(err)
		}
		pb, err := b.ReadPayload(i, bufB)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA, pb) {
			t.Fatalf("page %d differs across backends", i)
		}
	}
	if da, db := simA.Now()-startA, simB.Now()-startB; da != db {
		t.Fatalf("simulated charges differ across backends: pread %v, mmap %v", da, db)
	}
}

// TestMmapZeroCopyStable verifies ReadPayload on the mmap backend returns a
// view of the fixed mapping: two reads of the same page share backing memory
// and stay valid (and correct) across reads of other pages.
func TestMmapZeroCopyStable(t *testing.T) {
	if !mmapAvailable {
		t.Skip("mmap not available on this platform")
	}
	sim := testSim()
	path := writeTestFile(t, sim, 4)
	f, err := OpenWith(sim, path, OpenOptions{Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	scratch := make([]byte, f.PageSize())
	p1, err := f.ReadPayload(1, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] == &scratch[0] {
		t.Fatal("mmap ReadPayload copied into dst; expected a mapping view")
	}
	for i := int64(0); i < 4; i++ {
		if _, err := f.ReadPayload(i, scratch); err != nil {
			t.Fatal(err)
		}
	}
	p1again, err := f.ReadPayload(1, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &p1again[0] {
		t.Fatal("zero-copy payloads of the same page do not share backing memory")
	}
	if !bytes.Equal(p1, fill(f.PageSize(), 2)) {
		t.Fatal("zero-copy payload invalidated by unrelated reads")
	}
}

// TestLegacyV1ThroughMmap: the refusal of a superblock-less file does not
// depend on the backend, and leaves no mapping behind.
func TestLegacyV1ThroughMmap(t *testing.T) {
	if !mmapAvailable {
		t.Skip("mmap not available on this platform")
	}
	f, err := OpenWith(testSim(), writeLegacyV1(t), OpenOptions{Backend: BackendMmap})
	var fe *FormatError
	if !errors.As(err, &fe) {
		if err == nil {
			f.Close()
		}
		t.Fatalf("mmap open of a v1 file = %v, want a *FormatError", err)
	}
}

// TestBackendEnvOverride pins the CI hook: SV_PAGEFILE_BACKEND retargets
// BackendDefault but never an explicit choice.
func TestBackendEnvOverride(t *testing.T) {
	if !mmapAvailable {
		t.Skip("mmap not available on this platform")
	}
	sim := testSim()
	path := writeTestFile(t, sim, 2)

	t.Setenv("SV_PAGEFILE_BACKEND", "mmap")
	f, err := Open(sim, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.backend.(*mmapBackend); !ok {
		t.Fatalf("env override ignored: backend is %T", f.backend)
	}
	f.Close()

	g, err := OpenWith(sim, path, OpenOptions{Backend: BackendPread})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.backend.(*osBackend); !ok {
		t.Fatalf("explicit pread overridden by env: backend is %T", g.backend)
	}
	g.Close()

	t.Setenv("SV_PAGEFILE_BACKEND", "bogus")
	h, err := Open(sim, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.backend.(*osBackend); !ok {
		t.Fatalf("bogus env value should fall back to pread, got %T", h.backend)
	}
	h.Close()
}

// TestOpenItemFileRange verifies regions outside the file surface as a
// typed *ItemRangeError instead of deferred read failures.
func TestOpenItemFileRange(t *testing.T) {
	sim := testSim()
	f := NewMem(sim)
	perPage := int64(f.PageSize() / 100)
	for i := int64(0); i < 4; i++ {
		if _, err := f.Append(fill(f.PageSize(), byte(i))); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := OpenItemFile(f, 100, 0, 4*perPage); err != nil {
		t.Fatalf("in-range item file rejected: %v", err)
	}
	cases := []struct{ start, count int64 }{
		{4, 1},             // starts past the end
		{3, 2 * perPage},   // spans past the end
		{-1, perPage},      // negative start
		{0, -1},            // negative count
		{1 << 40, perPage}, // absurd start
		{0, 1 << 40},       // absurd count
	}
	for _, c := range cases {
		_, err := OpenItemFile(f, 100, c.start, c.count)
		var ire *ItemRangeError
		if !errors.As(err, &ire) {
			t.Fatalf("OpenItemFile(start=%d, count=%d) = %v, want ItemRangeError", c.start, c.count, err)
		}
	}
}

// BenchmarkBufPool hammers the scratch-buffer list directly from parallel
// goroutines. Each op is one get/put pair with a one-cache-line touch, the
// pattern of a checksummed page write or an item-file probe.
func BenchmarkBufPool(b *testing.B) {
	p := newBufPool(8192)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			buf := p.get()
			buf[0]++
			p.put(buf)
		}
	})
}
