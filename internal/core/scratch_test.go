package core

import (
	"io"
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
// reads as exhausted, keeps its counters, and tolerates a second Close.
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
	if !a.Done() || a.Buffered() != 0 || a.RemainingLeaves() != 0 || a.Emitted() != emitted || a.LeavesRead() != leaves {
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
