package core

import (
	"io"
	"slices"
	"testing"

	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// drainAll runs a stream to exhaustion and returns its record sequence.
func drainAll(t *testing.T, s *Stream) []record.Record {
	t.Helper()
	var out []record.Record
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// TestScratchRecycling: Close hands a stream's working memory to the next
// stream on the tree. The next stream must behave exactly like one on fresh
// memory, whatever its predecessor left behind (toggle bits, remaining
// counters, parked batches, queued records), and nothing the predecessor
// returned — by Next, NextBatch or the caller-owned batch draw — may change
// when the successor draws through the recycled memory. A closed stream
// reads as exhausted, keeps its counters, and tolerates a second Close; its
// combine table comes back empty however many regions it had batches parked
// under.
func TestScratchRecycling(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 6000, Params{Height: 7}, 91)
	qa := record.Box1D(workload.KeyDomain/5, workload.KeyDomain/2)
	qb := record.Box1D(workload.KeyDomain/3, workload.KeyDomain)

	fresh, err := tree.Query(qb) // never closed: its memory is its own
	if err != nil {
		t.Fatal(err)
	}
	want := drainAll(t, fresh)

	a, err := tree.Query(qa)
	if err != nil {
		t.Fatal(err)
	}
	var held [][]record.Record
	for i := 0; i < 5; i++ { // stop mid-stream: batches parked, records queued
		batch, err := a.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		own, err := a.AppendNext(make([]record.Record, 0, 8), 8)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, batch, own, []record.Record{rec})
	}
	if a.Buffered() == 0 {
		t.Fatal("stream A parked nothing; pick a predicate that leaves batches behind")
	}
	copies := make([][]record.Record, len(held))
	for i, h := range held {
		copies[i] = append([]record.Record(nil), h...)
	}
	emitted, leaves := a.Emitted(), a.LeavesRead()
	a.Close()
	a.Close()
	if rec, err := a.Next(); err != io.EOF {
		t.Fatalf("Next on a closed stream = %v, %v; want io.EOF", rec.Seq, err)
	}
	if got, err := a.AppendNext(nil, 4); err != nil || len(got) != 0 {
		t.Fatalf("AppendNext on a closed stream = %d records, %v", len(got), err)
	}
	if !a.Done() || a.Buffered() != 0 || a.scratch != nil || a.Emitted() != emitted || a.LeavesRead() != leaves {
		t.Fatal("a closed stream must read as exhausted with its counters intact")
	}

	b, err := tree.Query(qb)
	if err != nil {
		t.Fatal(err)
	}
	if b.scratch == fresh.scratch || len(tree.free) != 0 {
		t.Fatal("stream B did not take the scratch A handed back")
	}
	got := drainAll(t, b)
	if len(got) != len(want) {
		t.Fatalf("stream on recycled memory returned %d records, on fresh memory %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs between recycled and fresh working memory", i)
		}
	}
	for i := range held {
		for j := range held[i] {
			if held[i][j] != copies[i][j] {
				t.Fatalf("slice %d record %d, returned by the closed stream, changed under its successor", i, j)
			}
		}
	}

	// A 25% stream stopped after a few stabs has batches parked under many
	// regions. Close must hand back its combine table with every queue empty
	// and every ready count 0, and the stream that takes the table must draw
	// exactly what a stream on a freshly opened tree draws.
	qc := record.Box1D(workload.KeyDomain/8, workload.KeyDomain/8+workload.KeyDomain/4)
	c, err := tree.Query(qc)
	if err != nil {
		t.Fatal(err)
	}
	for range 6 {
		if _, err := c.NextLeaf(); err != nil {
			t.Fatal(err)
		}
	}
	regions := 0
	for _, q := range c.parked {
		if q.first != 0 {
			regions++
		}
	}
	if regions < 8 {
		t.Fatalf("stream C parked batches under %d regions; the check wants many", regions)
	}
	table := c.scratch
	chunks := slices.Clone(table.chunks)
	if len(chunks) == 0 || len(chunks) > tree.chunkBound() {
		t.Fatalf("stream C holds %d parking chunks; the check wants 1 to %d", len(chunks), tree.chunkBound())
	}
	c.Close()
	for idx := range table.parked {
		if n := table.depth(int64(idx)); n != 0 || table.parked[idx] != (queue{}) {
			t.Fatalf("closed stream left %d batches queued under heap node %d", n, idx)
		}
	}
	for sec, n := range table.ready {
		if n != 0 {
			t.Fatalf("closed stream left section %d's ready count at %d", sec+1, n)
		}
	}
	if len(table.chunks) != 0 {
		t.Fatalf("closed stream left %d parking chunks in use", len(table.chunks))
	}
	for i, got := range table.chunks[:len(chunks)] {
		if len(got) != 0 || chunkOf(got) != chunkOf(chunks[i]) {
			t.Fatal("closed stream's scratch does not keep its chunks, emptied, in order")
		}
	}
	reopened, err := Open(tree.f)
	if err != nil {
		t.Fatal(err)
	}
	fromFresh, err := reopened.Query(qc)
	if err != nil {
		t.Fatal(err)
	}
	want = drainAll(t, fromFresh)
	d, err := tree.Query(qc)
	if err != nil {
		t.Fatal(err)
	}
	if d.scratch != table {
		t.Fatal("stream D did not take the table C handed back")
	}
	if got := drainAll(t, d); !slices.Equal(got, want) {
		t.Fatalf("stream on C's recycled table drew %d records, one on a fresh tree %d (or they differ)", len(got), len(want))
	}
	for i, c := range chunks {
		if chunkOf(d.chunks[i]) != chunkOf(c) {
			t.Fatalf("stream D parked into another chunk than C's %d-th", i)
		}
	}

	// The free list is bounded: closing more streams than it holds drops the
	// surplus instead of blocking or growing.
	var open []*Stream
	for i := 0; i < 2*maxFreeScratch; i++ {
		s, err := tree.Query(qa)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, s)
	}
	for _, s := range open {
		s.Close()
	}
	if len(tree.free) != maxFreeScratch {
		t.Fatalf("free list holds %d scratch objects, want %d", len(tree.free), maxFreeScratch)
	}
}

// TestParkingChunksRecycled: a closed stream's parking chunks stay with its
// scratch, emptied and in order, so the next stream on that scratch parks
// into them and makes none. No scratch keeps more than its tree's chunkBound,
// count/recordsPerKept records rounded up to whole chunks, whatever streams
// closed into it, from whichever clocked view, on a built or a reopened tree.
func TestParkingChunksRecycled(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 200_000, Params{}, 95)
	kept := tree.count / recordsPerKept
	bound := int((kept + chunkRecords - 1) / chunkRecords)
	if tree.chunkBound() != bound || kept%chunkRecords == 0 || bound < 2 {
		t.Fatalf("tree of %d records keeps %d chunks a stream, want %d (at least 2, and count/%d not a multiple of %d, for this test)",
			tree.count, tree.chunkBound(), bound, recordsPerKept, chunkRecords)
	}
	reopened, err := Open(tree.f)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.chunkBound() != bound {
		t.Fatalf("reopened tree keeps %d chunks a stream, want %d", reopened.chunkBound(), bound)
	}
	q := record.Box1D(workload.KeyDomain/8, workload.KeyDomain/8+workload.KeyDomain/4)
	first, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := drainAll(t, first)
	if len(first.chunks) != bound {
		t.Fatalf("a 25%% drain parked into %d chunks; the check wants the tree's %d", len(first.chunks), bound)
	}
	sc, made := first.scratch, slices.Clone(first.chunks)
	first.Close()
	if len(sc.chunks) != 0 {
		t.Fatalf("closed stream left %d parking chunks in use", len(sc.chunks))
	}
	for i, got := range sc.chunks[:bound] {
		if len(got) != 0 || chunkOf(got) != chunkOf(made[i]) {
			t.Fatal("closed stream's scratch does not keep its chunks, emptied, in order")
		}
	}

	second, err := tree.WithClock(sim.Fork()).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if second.scratch != sc {
		t.Fatal("the second stream did not take the scratch the first handed back")
	}
	var got []record.Record
	for {
		batch, err := second.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
		for i, c := range second.chunks {
			if chunkOf(c) != chunkOf(made[i]) {
				t.Fatalf("the second stream parked into another chunk than the first's %d-th", i)
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatal("the stream parking into recycled chunks drew other records than the first")
	}
	second.Close()

	for _, tr := range []*Tree{tree, reopened} {
		var open []*Stream
		for i := range 12 {
			lo := workload.KeyDomain / 16 * int64(i%8)
			s, err := tr.WithClock(sim.Fork()).Query(record.Box1D(lo, lo+workload.KeyDomain/4))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.AppendNext(nil, 3000); err != nil {
				t.Fatal(err)
			}
			open = append(open, s)
			if i%3 == 2 {
				for _, s := range open {
					s.Close()
				}
				open = open[:0]
			}
			for _, chunks := range idleChunks(tr) {
				if len(chunks) > bound {
					t.Fatalf("an idle scratch keeps %d chunks, over its tree's bound of %d", len(chunks), bound)
				}
			}
		}
	}
}

// TestOverlappingStreamsRecycleParking: two 25% streams on one tree, drawn in
// alternation, hold parked batches at once; once both close, each scratch
// keeps the chunks its stream filled. A second round of the same pair parks
// into those chunks, makes none, and draws the same records.
func TestOverlappingStreamsRecycleParking(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 200_000, Params{}, 97)
	qs := []record.Box{
		record.Box1D(workload.KeyDomain/8, workload.KeyDomain/8+workload.KeyDomain/4),
		record.Box1D(workload.KeyDomain/2, workload.KeyDomain/2+workload.KeyDomain/4),
	}
	var seen map[*record.Record]bool
	var first [][]record.Record
	for round := range 2 {
		ss := make([]*Stream, len(qs))
		for i, q := range qs {
			s, err := tree.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			ss[i] = s
		}
		got := make([][]record.Record, len(ss))
		overlapped := false
		for live := len(ss); live > 0; {
			live = 0
			for i, s := range ss {
				if s.Done() {
					continue
				}
				batch, err := s.NextBatch()
				if err != nil && err != io.EOF {
					t.Fatal(err)
				}
				got[i] = append(got[i], batch...)
				live++
			}
			overlapped = overlapped || ss[0].Buffered() > 0 && ss[1].Buffered() > 0
		}
		if !overlapped {
			t.Fatal("the two streams never held parked batches at once")
		}
		made, used := 0, map[*record.Record]bool{}
		for i, s := range ss {
			if len(s.chunks) == 0 {
				t.Fatalf("stream %d parked into no chunk; the check wants both to", i)
			}
			for _, c := range s.chunks {
				if !seen[chunkOf(c)] {
					made++
				}
				used[chunkOf(c)] = true
			}
			s.Close()
		}
		if round == 0 {
			seen, first = used, got
			continue
		}
		if made != 0 {
			t.Fatalf("the second round made %d parking chunks on a warm tree, want 0", made)
		}
		for i := range got {
			if !slices.Equal(got[i], first[i]) {
				t.Fatalf("stream %d of the second round drew other records than in the first", i)
			}
		}
	}
}

// TestLendBatchIsNextBatchWithoutTheCopy: the lent batch is the very batch
// NextBatch would have copied out, and reordering it — what the layers above
// do to it, in place — changes nothing the stream emits afterwards.
func TestLendBatchIsNextBatchWithoutTheCopy(t *testing.T) {
	sim := testSim()
	tree, _ := buildTestTree(t, sim, 5000, Params{Height: 6}, 93)
	q := record.Box1D(0, workload.KeyDomain/2)
	copied, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	lent, err := tree.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for {
		want, werr := copied.NextBatch()
		got, gerr := lent.LendBatch()
		if werr != gerr || len(want) != len(got) {
			t.Fatalf("NextBatch = %d records, %v; LendBatch = %d records, %v", len(want), werr, len(got), gerr)
		}
		if werr == io.EOF {
			break
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("lent batch differs from the copied one at record %d", i)
			}
		}
		for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
			got[i], got[j] = got[j], got[i]
		}
	}
	if copied.Emitted() != lent.Emitted() {
		t.Fatalf("emitted %d vs %d", copied.Emitted(), lent.Emitted())
	}
}

// depth returns how many batches sc holds parked under heap node idx.
func (sc *scratch) depth(idx int64) int {
	n := 0
	for i := sc.parked[idx].first; i != 0; i = sc.batches[i-1].next {
		n++
	}
	return n
}

// chunkOf names a parking chunk by its backing array.
func chunkOf(c []record.Record) *record.Record { return &c[:1][0] }

// idleChunks returns, per scratch object on t's free list, the parking chunks
// it keeps for its next stream.
func idleChunks(t *Tree) [][]*record.Record {
	var out [][]*record.Record
	for range len(t.free) {
		sc := <-t.free
		var chunks []*record.Record
		for _, c := range sc.chunks[:cap(sc.chunks)] {
			if c != nil {
				chunks = append(chunks, chunkOf(c))
			}
		}
		out = append(out, chunks)
		t.free <- sc
	}
	return out
}
