package pagefile

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sampleview/internal/iosim"
)

// countingBackend is a plain (copying, non-view) backend that records what
// every ReadPage moved.
type countingBackend struct {
	memBackend
	reads []int // len(dst) of each ReadPage, in call order
}

func (c *countingBackend) ReadPage(i int64, dst []byte) error {
	c.reads = append(c.reads, len(dst))
	return c.memBackend.ReadPage(i, dst)
}

// PageView hides the embedded memory backend's zero-copy view, so reads take
// the positional-read path an OS file takes.
func (c *countingBackend) PageView(int64) ([]byte, bool) { return nil, false }

// varied fills a page payload with position-dependent bytes.
func varied(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7) + byte(i>>8)
	}
	return p
}

// prefixFiles opens the same 40 pages on every backend: memory (frame
// views), a counting positional backend, pread and mmap.
func prefixFiles(t *testing.T) map[string]*File {
	t.Helper()
	files := map[string]*File{
		"mem":      NewMem(testSim()),
		"counting": NewOn(testSim(), &countingBackend{memBackend: memBackend{pageSize: 512}}),
	}
	sim := testSim()
	path := writeTestFile(t, sim, 0)
	disk, err := OpenWith(sim, path, OpenOptions{Backend: BackendPread})
	if err != nil {
		t.Fatal(err)
	}
	files["pread-build"] = disk
	for _, f := range files {
		for i := 0; i < 40; i++ {
			if _, err := f.Append(varied(f.PageSize(), byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	delete(files, "pread-build")
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	for name, kind := range map[string]BackendKind{"pread": BackendPread, "mmap": BackendMmap} {
		f, err := OpenWith(testSim(), path, OpenOptions{Backend: kind})
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	t.Cleanup(func() {
		for _, f := range files {
			f.Close()
		}
	})
	return files
}

// TestReadPrefixReturnsThePrefix: on every backend and for every interesting
// length — nothing, one byte, the longest prefix that still fits dst beside
// the header, one more (which falls back to the whole frame) and the whole
// payload — ReadPrefix returns exactly Read's leading bytes when handed
// their checksum and a *CorruptPageError when handed any other.
func TestReadPrefixReturnsThePrefix(t *testing.T) {
	for name, f := range prefixFiles(t) {
		ps := f.PageSize()
		whole, buf := make([]byte, ps), make([]byte, ps)
		for _, n := range []int{0, 1, 100, ps - frameHdrSize, ps - frameHdrSize + 1, ps} {
			for i := int64(0); i < f.NumPages(); i += 5 {
				if err := f.Read(i, whole); err != nil {
					t.Fatal(err)
				}
				got, err := f.ReadPrefix(i, buf, n, UpdateCRC(0, whole[:n]))
				if err != nil {
					t.Fatalf("%s: page %d prefix %d: %v", name, i, n, err)
				}
				if !bytes.Equal(got, whole[:n]) {
					t.Fatalf("%s: page %d prefix %d returned other bytes than Read", name, i, n)
				}
				if n == 0 || frameHdrSize+n > ps {
					continue // nothing fetched / whole-frame fallback: want is not consulted
				}
				_, err = f.ReadPrefix(i, buf, n, UpdateCRC(0, whole[:n])^1)
				var cpe *CorruptPageError
				if !errors.As(err, &cpe) || cpe.Page != i {
					t.Fatalf("%s: page %d prefix %d with a wrong checksum = %v, want CorruptPageError", name, i, n, err)
				}
			}
		}
	}
}

// TestReadPrefixMovesOnlyThePrefix counts the bytes a positional backend is
// asked for: header + n for a prefix, nothing at all for n == 0, and one
// charged page read either way.
func TestReadPrefixMovesOnlyThePrefix(t *testing.T) {
	f := prefixFiles(t)["counting"]
	cb := f.backend.(*countingBackend)
	whole, buf := make([]byte, f.PageSize()), make([]byte, f.PageSize())
	if err := f.Read(3, whole); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 200, f.PageSize() - frameHdrSize} {
		cb.reads = cb.reads[:0]
		before := f.Sim().Counters().Reads()
		if _, err := f.ReadPrefix(3, buf, n, UpdateCRC(0, whole[:n])); err != nil {
			t.Fatal(err)
		}
		if charged := f.Sim().Counters().Reads() - before; charged != 1 {
			t.Fatalf("prefix %d charged %d page reads, want 1", n, charged)
		}
		want := []int{frameHdrSize + n}
		if n == 0 {
			want = nil
		}
		if fmt.Sprint(cb.reads) != fmt.Sprint(want) {
			t.Fatalf("prefix %d fetched %v bytes, want %v", n, cb.reads, want)
		}
	}
}

// TestReadPrefixSameAttemptLoop drives Read and ReadPrefix over the same
// pages under every fault kind at once, each on its own forked clock: the
// errors, the simulated time, the read counters and every fault counter
// must be identical — a prefix read differs from a page read only in the
// bytes it moves.
func TestReadPrefixSameAttemptLoop(t *testing.T) {
	plan := iosim.FaultPlan{
		Seed: 5, TransientRate: 0.3, TransientBurst: 6, MaxAttempts: 3,
		LatencyRate: 0.3, LatencySpike: 1 << 20, StickyRate: 0.15, CorruptRate: 0.25,
	}
	for name, f := range prefixFiles(t) {
		clean := make([][]byte, f.NumPages())
		for i := range clean {
			clean[i] = make([]byte, f.PageSize())
			if err := f.Read(int64(i), clean[i]); err != nil {
				t.Fatal(err)
			}
		}
		f.Sim().SetFaultPlan(plan)
		for _, n := range []int{0, 64, f.PageSize() - frameHdrSize} {
			ca, cb := f.Sim().Fork(), f.Sim().Fork()
			fa, fb := f.OnClock(ca), f.OnClock(cb)
			buf := make([]byte, f.PageSize())
			kinds := map[string]bool{}
			for pass := 0; pass < 3; pass++ { // later passes meet spent transient bursts
				for i := int64(0); i < f.NumPages(); i++ {
					errA := fa.Read(i, buf)
					got, errB := fb.ReadPrefix(i, buf, n, UpdateCRC(0, clean[i][:n]))
					if fmt.Sprint(errA) != fmt.Sprint(errB) {
						t.Fatalf("%s: page %d prefix %d: Read = %v, ReadPrefix = %v", name, i, n, errA, errB)
					}
					if errB == nil && !bytes.Equal(got, clean[i][:n]) {
						t.Fatalf("%s: page %d prefix %d: wrong bytes", name, i, n)
					}
					kinds[fmt.Sprintf("%T", errA)] = true
				}
			}
			if len(kinds) < 4 {
				t.Fatalf("%s: plan produced only %v; the test proves too little", name, kinds)
			}
			if ca.Now() != cb.Now() || ca.Counters() != cb.Counters() || ca.FaultCounters() != cb.FaultCounters() {
				t.Fatalf("%s: prefix %d: clocks diverge: Read %v %+v %+v, ReadPrefix %v %+v %+v", name, n,
					ca.Now(), ca.Counters(), ca.FaultCounters(), cb.Now(), cb.Counters(), cb.FaultCounters())
			}
		}
		f.Sim().SetFaultPlan(iosim.FaultPlan{})
	}
}

// TestReadPrefixCorruptionIsLocal flips stored bits one at a time: a prefix
// read rejects a flip inside the bytes it consumes or in the page-number
// field, and does not see one anywhere else — which CheckPage still does.
func TestReadPrefixCorruptionIsLocal(t *testing.T) {
	const n = 120
	for name, f := range prefixFiles(t) {
		if name == "mmap" || name == "pread" {
			continue // CorruptStored writes through; the two OS backends share one file
		}
		whole, buf := make([]byte, f.PageSize()), make([]byte, f.PageSize())
		if err := f.Read(2, whole); err != nil {
			t.Fatal(err)
		}
		want := UpdateCRC(0, whole[:n])
		for _, c := range []struct {
			bit  int64
			seen bool
		}{
			{0, false}, {31, false}, // the whole-frame checksum field
			{32, true}, {63, true}, // the page-number field
			{64, true}, {8*(frameHdrSize+n) - 1, true}, // first and last bit of the prefix
			{8 * (frameHdrSize + n), false}, {8*512 - 1, false}, // past it
		} {
			if err := f.CorruptStored(2, c.bit); err != nil {
				t.Fatal(err)
			}
			_, err := f.ReadPrefix(2, buf, n, want)
			if got := IsCorrupt(err); got != c.seen || (err != nil && !got) {
				t.Fatalf("%s: bit %d: ReadPrefix = %v, want corrupt=%v", name, c.bit, err, c.seen)
			}
			if err := f.CheckPage(2); !IsCorrupt(err) {
				t.Fatalf("%s: bit %d: CheckPage = %v, want CorruptPageError", name, c.bit, err)
			}
			if err := f.CorruptStored(2, c.bit); err != nil { // heal
				t.Fatal(err)
			}
		}
	}
}
