package pagefile

import (
	"bytes"
	"fmt"
	"testing"

	"sampleview/internal/iosim"
)

// spanSums is what a writer keeps for a span of page i's payload: the
// checksum of every piece of [off, off+n) cut at the multiples of block.
func spanSums(i int64, payload []byte, off, n, block int) []uint32 {
	var sums []uint32
	for at := off; at < off+n; {
		next := min((at/block+1)*block, off+n)
		sums = append(sums, UpdateCRC(uint32(i), payload[at:next]))
		at = next
	}
	return sums
}

// spanCases are (off, n, block) triples: one piece, a span starting and
// ending mid-block, block-aligned ends, a single byte and the whole payload.
func spanCases(ps int) [][3]int {
	return [][3]int{{0, 100, 100}, {24, 300, 64}, {64, 128, 64}, {ps - 1, 1, 64}, {0, ps, 100}}
}

// TestReadSpanReturnsTheSpan: on every backend, ReadSpan returns exactly
// Read's bytes [off, off+n) when handed their piece checksums.
func TestReadSpanReturnsTheSpan(t *testing.T) {
	for name, f := range prefixFiles(t) {
		ps := f.PageSize()
		whole, buf := make([]byte, ps), make([]byte, ps)
		for i := int64(0); i < f.NumPages(); i += 3 {
			if err := f.Read(i, whole); err != nil {
				t.Fatal(err)
			}
			for _, c := range spanCases(ps) {
				off, n, block := c[0], c[1], c[2]
				got, err := f.ReadSpan(i, buf, off, n, block, spanSums(i, whole, off, n, block))
				if err != nil {
					t.Fatalf("%s: page %d span %v: %v", name, i, c, err)
				}
				if !bytes.Equal(got, whole[off:off+n]) {
					t.Fatalf("%s: page %d span %v returned other bytes than Read", name, i, c)
				}
			}
		}
	}
}

// TestReadSpanMovesOnlyTheSpan counts the bytes a positional backend is
// asked for: the span's n bytes and no header, one charged page read.
func TestReadSpanMovesOnlyTheSpan(t *testing.T) {
	f := prefixFiles(t)["counting"]
	cb := f.backend.(*countingBackend)
	whole, buf := make([]byte, f.PageSize()), make([]byte, f.PageSize())
	if err := f.Read(3, whole); err != nil {
		t.Fatal(err)
	}
	for _, c := range spanCases(f.PageSize()) {
		off, n, block := c[0], c[1], c[2]
		cb.reads = cb.reads[:0]
		before := f.Sim().Counters().Reads()
		if _, err := f.ReadSpan(3, buf, off, n, block, spanSums(3, whole, off, n, block)); err != nil {
			t.Fatal(err)
		}
		if charged := f.Sim().Counters().Reads() - before; charged != 1 {
			t.Fatalf("span %v charged %d page reads, want 1", c, charged)
		}
		if fmt.Sprint(cb.reads) != fmt.Sprint([]int{n}) {
			t.Fatalf("span %v fetched %v bytes, want [%d]", c, cb.reads, n)
		}
	}
}

// TestReadSpanSameAttemptLoop drives ReadPrefix from offset 0, ReadSpan and
// ReadPrefix from an offset over the same pages under every named fault
// profile, and one plan with every fault kind at once, on the memory,
// positional, pread and mmap backends, each on its own forked clock: the
// errors, the simulated time, the read counters and every fault counter must
// be identical — a span read differs from a prefix read only in the bytes it
// moves and checks.
func TestReadSpanSameAttemptLoop(t *testing.T) {
	plans := map[string]iosim.FaultPlan{"every-kind": {
		Seed: 5, TransientRate: 0.3, TransientBurst: 6, MaxAttempts: 3,
		LatencyRate: 0.3, LatencySpike: 1 << 20, StickyRate: 0.15, CorruptRate: 0.25,
	}}
	for _, name := range iosim.Profiles() {
		for seed := uint64(1); seed <= 3; seed++ {
			p, err := iosim.ProfilePlan(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			plans[fmt.Sprintf("%s/%d", name, seed)] = p
		}
	}
	const off, n, block = 40, 300, 64
	for backend, f := range prefixFiles(t) {
		clean := make([][]byte, f.NumPages())
		for i := range clean {
			clean[i] = make([]byte, f.PageSize())
			if err := f.Read(int64(i), clean[i]); err != nil {
				t.Fatal(err)
			}
		}
		kinds := map[string]bool{}
		for plan, p := range plans {
			f.Sim().SetFaultPlan(p)
			ca, cb, cc := f.Sim().Fork(), f.Sim().Fork(), f.Sim().Fork()
			fa, fb, fc := f.OnClock(ca), f.OnClock(cb), f.OnClock(cc)
			buf := make([]byte, f.PageSize())
			for pass := 0; pass < 3; pass++ { // later passes meet spent transient bursts
				for i := int64(0); i < f.NumPages(); i++ {
					_, errA := fa.ReadPrefix(i, buf, 0, off+n, 0, UpdateCRC(0, clean[i][:off+n]))
					got, errB := fb.ReadSpan(i, buf, off, n, block, spanSums(i, clean[i], off, n, block))
					if fmt.Sprint(errA) != fmt.Sprint(errB) {
						t.Fatalf("%s %s: page %d: ReadPrefix = %v, ReadSpan = %v", backend, plan, i, errA, errB)
					}
					if errB == nil && !bytes.Equal(got, clean[i][off:off+n]) {
						t.Fatalf("%s %s: page %d: wrong bytes", backend, plan, i)
					}
					got, errC := fc.ReadPrefix(i, buf, off, n, UpdateCRC(0, clean[i][:off]), UpdateCRC(0, clean[i][:off+n]))
					if fmt.Sprint(errA) != fmt.Sprint(errC) {
						t.Fatalf("%s %s: page %d: ReadPrefix from 0 = %v, from %d = %v", backend, plan, i, errA, off, errC)
					}
					if errC == nil && !bytes.Equal(got, clean[i][off:off+n]) {
						t.Fatalf("%s %s: page %d: wrong bytes from offset %d", backend, plan, i, off)
					}
					kinds[fmt.Sprintf("%T", errA)] = true
				}
			}
			for name, c := range map[string]*iosim.Clock{"ReadSpan": cb, "ReadPrefix from an offset": cc} {
				if ca.Now() != c.Now() || ca.Counters() != c.Counters() || ca.FaultCounters() != c.FaultCounters() {
					t.Fatalf("%s %s: clocks diverge: ReadPrefix %v %+v %+v, %s %v %+v %+v", backend, plan,
						ca.Now(), ca.Counters(), ca.FaultCounters(), name, c.Now(), c.Counters(), c.FaultCounters())
				}
			}
		}
		if len(kinds) < 4 {
			t.Fatalf("%s: the plans produced only %v; the test proves too little", backend, kinds)
		}
		f.Sim().SetFaultPlan(iosim.FaultPlan{})
	}
}

// TestReadSpanRejects: a flipped stored bit inside the span, a span served
// from another page with identical bytes, and a wrong checksum for any one
// piece each fail with a *CorruptPageError naming the page read; a flip
// outside the span goes unseen, as it does for ReadPrefix.
func TestReadSpanRejects(t *testing.T) {
	const off, n, block = 40, 300, 64
	for name, f := range prefixFiles(t) {
		if name == "mmap" || name == "pread" {
			continue // CorruptStored writes through; the two OS backends share one file
		}
		whole, buf := make([]byte, f.PageSize()), make([]byte, f.PageSize())
		if err := f.Read(2, whole); err != nil {
			t.Fatal(err)
		}
		sums := spanSums(2, whole, off, n, block)
		corrupt := func(what string, page int64, want []uint32, seen bool) {
			t.Helper()
			_, err := f.ReadSpan(page, buf, off, n, block, want)
			cpe, ok := err.(*CorruptPageError)
			if ok != seen || (err != nil && !ok) || (ok && cpe.Page != page) {
				t.Fatalf("%s: %s: ReadSpan = %v, want corrupt=%v", name, what, err, seen)
			}
		}
		for k := range sums {
			bad := append([]uint32(nil), sums...)
			bad[k] ^= 1
			corrupt(fmt.Sprintf("piece %d's checksum", k), 2, bad, true)
		}
		for _, c := range []struct {
			bit  int64
			seen bool
		}{
			{8 * (frameHdrSize + off), true}, {8*(frameHdrSize+off+n) - 1, true}, // first and last bit of the span
			{8*(frameHdrSize+off) - 1, false}, {8 * (frameHdrSize + off + n), false}, // just outside it
		} {
			if err := f.CorruptStored(2, c.bit); err != nil {
				t.Fatal(err)
			}
			corrupt(fmt.Sprintf("bit %d", c.bit), 2, sums, c.seen)
			if err := f.CorruptStored(2, c.bit); err != nil { // heal
				t.Fatal(err)
			}
		}
	}

	// Two pages holding the same bytes: the span of one is refused as the
	// other's, because each piece's checksum is seeded with its page number.
	f := NewMem(testSim())
	payload := varied(f.PageSize(), 9)
	for i := 0; i < 2; i++ {
		if _, err := f.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, f.PageSize())
	if _, err := f.ReadSpan(1, buf, off, n, block, spanSums(1, payload, off, n, block)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadSpan(1, buf, off, n, block, spanSums(0, payload, off, n, block)); !IsCorrupt(err) {
		t.Fatalf("page 0's span checksums accepted for page 1's identical bytes: %v", err)
	}
}

// prefixSpanCases are (off, n) pairs for ReadPrefix from an offset: a span
// inside the payload, one ending at its last byte, a single byte, an empty
// span past the start, and the whole payload from offset 0.
func prefixSpanCases(ps int) [][2]int {
	return [][2]int{{40, 300}, {ps - 100, 100}, {ps - 1, 1}, {200, 0}, {0, ps}}
}

// TestReadPrefixFromOffset: on every backend, ReadPrefix from an offset,
// seeded with the checksum of the payload before it, returns exactly Read's
// bytes [off, off+n); on the positional backend it asks for those n bytes
// alone (no header once off > 0) in one charged page read.
func TestReadPrefixFromOffset(t *testing.T) {
	for name, f := range prefixFiles(t) {
		ps := f.PageSize()
		whole, buf := make([]byte, ps), make([]byte, ps)
		for i := int64(0); i < f.NumPages(); i += 3 {
			if err := f.Read(i, whole); err != nil {
				t.Fatal(err)
			}
			for _, c := range prefixSpanCases(ps) {
				off, n := c[0], c[1]
				cb, counting := f.backend.(*countingBackend)
				if counting {
					cb.reads = cb.reads[:0]
				}
				before := f.Sim().Counters().Reads()
				got, err := f.ReadPrefix(i, buf, off, n, UpdateCRC(0, whole[:off]), UpdateCRC(0, whole[:off+n]))
				if err != nil {
					t.Fatalf("%s: page %d span %v: %v", name, i, c, err)
				}
				if !bytes.Equal(got, whole[off:off+n]) {
					t.Fatalf("%s: page %d span %v returned other bytes than Read", name, i, c)
				}
				if charged := f.Sim().Counters().Reads() - before; charged != 1 {
					t.Fatalf("%s: page %d span %v charged %d page reads, want 1", name, i, c, charged)
				}
				want := []int{n}
				switch {
				case n == 0:
					want = nil
				case off == 0:
					want = []int{frameHdrSize + n}
				}
				if counting && fmt.Sprint(cb.reads) != fmt.Sprint(want) {
					t.Fatalf("page %d span %v fetched %v bytes, want %v", i, c, cb.reads, want)
				}
			}
		}
	}
}

// TestReadPrefixFromOffsetRejects: a wrong seed, a wrong want, a flipped
// stored bit inside the span, and the span asked of another page each fail
// with a *CorruptPageError naming the page read. A flip before the span (or
// past it) goes unseen: an offset read checks only the bytes it moves, and
// reads no header, so it is bound to its page by the chain value alone —
// which is to say by the page's content.
func TestReadPrefixFromOffsetRejects(t *testing.T) {
	const off, n = 40, 300
	for name, f := range prefixFiles(t) {
		if name == "mmap" || name == "pread" {
			continue // CorruptStored writes through; the two OS backends share one file
		}
		whole, buf := make([]byte, f.PageSize()), make([]byte, f.PageSize())
		if err := f.Read(2, whole); err != nil {
			t.Fatal(err)
		}
		seed, want := UpdateCRC(0, whole[:off]), UpdateCRC(0, whole[:off+n])
		read := func(what string, page int64, seed, want uint32, seen bool) {
			t.Helper()
			_, err := f.ReadPrefix(page, buf, off, n, seed, want)
			cpe, ok := err.(*CorruptPageError)
			if ok != seen || (err != nil && !ok) || (ok && cpe.Page != page) {
				t.Fatalf("%s: %s: ReadPrefix = %v, want corrupt=%v", name, what, err, seen)
			}
		}
		read("intact", 2, seed, want, false)
		read("wrong seed", 2, seed^1, want, true)
		read("wrong want", 2, seed, want^1, true)
		read("another page", 3, seed, want, true)
		for _, c := range []struct {
			bit  int64
			seen bool
		}{
			{8 * (frameHdrSize + off), true}, {8*(frameHdrSize+off+n) - 1, true}, // first and last bit of the span
			{8*(frameHdrSize+off) - 1, false}, {8 * (frameHdrSize + off + n), false}, // just outside it
			{8 * frameHdrSize, false}, {8 * 5, false}, // the payload's first byte, the header's page number
		} {
			if err := f.CorruptStored(2, c.bit); err != nil {
				t.Fatal(err)
			}
			read(fmt.Sprintf("bit %d", c.bit), 2, seed, want, c.seen)
			if err := f.CorruptStored(2, c.bit); err != nil { // heal
				t.Fatal(err)
			}
		}
	}
}
