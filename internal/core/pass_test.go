package core

import (
	"io"
	"testing"
	"unsafe"

	"sampleview/internal/iosim"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// TestDrainPassBound holds the drain pass to its ski-rental bound on the
// seeded 200k-record view (one-page leaves on 64 KiB pages, as in svsuite's
// scan-local). Each 0.25% drain is drawn 100 records at a time beside the
// same stream kept to its stabs: at every cut the stream may have been
// charged at most twice what the stabs were, plus one random read, and at
// the end no more than they were. Streams closed at 1,024 samples of more
// matches, as svsuite's latency ops are, never reach the pass and are charged
// exactly as the stabs. A
// stream that takes the pass on recycled scratch holds its records in the
// buffer the stream before it left.
func TestDrainPassBound(t *testing.T) {
	tree, _ := seededView(t)
	sim := tree.f.Sim()
	random := sim.Model().RandomRead
	qg := workload.NewQueryGen(45)
	open := func(q record.Box, stay bool) (*Stream, *iosim.Clock) {
		ck := sim.Fork()
		s, err := tree.WithClock(ck).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		s.weighed = stay
		return s, ck
	}
	passes, reused := 0, 0
	var held *record.Record
	heldCap := -1
	for range 12 {
		q := qg.Range1D(0.0025)
		s, ck := open(q, false)
		stay, cs := open(q, true)
		var got, want []record.Record
		for cut := 0; ; cut++ {
			var err error
			if got, err = s.AppendNext(got[:0], 100); err != nil {
				t.Fatal(err)
			}
			if want, err = stay.AppendNext(want[:0], 100); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v cut %d: %d records, kept to its stabs %d", q, cut, len(got), len(want))
			}
			if ck.Now() > 2*cs.Now()+random {
				t.Fatalf("%v cut %d: charged %v, the stabs %v: over twice theirs plus a random read", q, cut, ck.Now(), cs.Now())
			}
			if len(got) < 100 {
				break
			}
		}
		if ck.Now() > cs.Now() {
			t.Fatalf("%v: a drain charged %v, its stabs %v", q, ck.Now(), cs.Now())
		}
		if s.passed {
			passes++
			// A buffer grows to the largest bound it met, and is kept after.
			if at := unsafe.SliceData(s.held); cap(s.held) == heldCap {
				if at != held {
					t.Fatalf("%v: the pass held its records in a new buffer of the recycled one's size", q)
				}
				reused++
			}
			held, heldCap = unsafe.SliceData(s.held), cap(s.held)
		}
		t.Logf("%v: passed %v, charged %v, its stabs %v", q, s.passed, ck.Now(), cs.Now())
		s.Close()
		stay.Close()
	}
	if passes < 6 || reused == 0 {
		t.Fatalf("%d of 12 drains took the pass, %d in a recycled buffer; the bound was barely tested", passes, reused)
	}
	for _, sel := range []float64{0.025, 0.25} {
		q := qg.Range1D(sel)
		s, ck := open(q, false)
		stay, cs := open(q, true)
		got, err := s.AppendNext(nil, 1024)
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		want, err := stay.AppendNext(nil, 1024)
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if len(got) != 1024 || len(want) != 1024 || s.passed || ck.Now() != cs.Now() || ck.Counters() != cs.Counters() {
			t.Fatalf("%v: 1,024 samples charged %v %+v (passed %v), the stabs %v %+v", q, ck.Now(), ck.Counters(), s.passed, cs.Now(), cs.Counters())
		}
	}
}
