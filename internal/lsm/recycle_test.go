package lsm

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"sampleview/internal/iosim"
	"sampleview/internal/record"
	"sampleview/internal/workload"
)

// writePathView is a 3,000-record base under two flushed levels (1,500 and
// 1,200 inserts, runs of at most 660) and a memview of 300 inserts: every
// buffer a stream over it fills is far below maxIdleRecords.
func writePathView(t *testing.T, sim *iosim.Sim) *View {
	t.Helper()
	v := buildView(t, sim, 3000, 1)
	for g, n := range []int{1500, 1200, 300} {
		ingest(t, v, n, uint64(g+2), uint64(g+1)<<32)
		if g < 2 {
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return v
}

// drainAll draws s dry in batches of 64.
func drainAll(t *testing.T, s *Stream) []record.Record {
	t.Helper()
	var out []record.Record
	for {
		n := len(out)
		var err error
		if out, err = s.AppendNext(out, 64); err != nil {
			t.Fatal(err)
		}
		if len(out)-n < 64 {
			return out
		}
	}
}

// buffers returns the backing arrays of s's in-memory list and of each
// level's run buffer, newest level first.
func buffers(s *Stream) []*record.Record {
	out := []*record.Record{unsafe.SliceData(s.mem)}
	for i := range s.levels {
		out = append(out, unsafe.SliceData(s.levels[i].ready))
	}
	return out
}

// idleLists returns the view's match-list list and each level's run-buffer
// list, newest level first.
func idleLists(v *View, levels []*level) []chan []record.Record {
	out := []chan []record.Record{v.idle}
	for _, l := range levels {
		out = append(out, l.idle)
	}
	return out
}

// TestWritePathBuffersRecycled: a closed stream's in-memory list and run
// buffers go back to their view and levels, and the next stream takes them
// instead of making its own. Drawn with the same seed over the same state,
// the second stream returns the same records at the same simulated cost as
// the first, which took nothing, and it fills the first's buffers at open
// and never grows them: it loads every run without making a run buffer.
func TestWritePathBuffersRecycled(t *testing.T) {
	sim := testSim()
	v := writePathView(t, sim)
	levels := v.Store().snapshotLevels()
	defer release(levels)
	q := record.Box1D(0, workload.KeyDomain/2)
	run := func() (recs []record.Record, ck *iosim.Clock, opened, drained []*record.Record) {
		ck = sim.Fork()
		s, err := v.QueryClocked(ck, q, rand.New(rand.NewPCG(5, 6)))
		if err != nil {
			t.Fatal(err)
		}
		opened = buffers(s)
		recs = drainAll(t, s)
		drained = buffers(s)
		s.Close()
		return recs, ck, opened, drained
	}
	warm, warmCk, _, kept := run()
	for i, list := range idleLists(v, levels) {
		if len(list) != 1 || kept[i] == nil {
			t.Fatalf("list %d holds %d buffers after one stream closed, want its one", i, len(list))
		}
	}
	recs, ck, opened, drained := run()
	if !slices.Equal(recs, warm) || len(recs) == 0 {
		t.Fatalf("the second stream drew %d records, the first %d: not the same sequence", len(recs), len(warm))
	}
	if ck.Now() != warmCk.Now() || ck.Counters() != warmCk.Counters() {
		t.Fatalf("the second stream cost %v %+v, the first %v %+v", ck.Now(), ck.Counters(), warmCk.Now(), warmCk.Counters())
	}
	for i := range kept {
		if opened[i] != kept[i] || drained[i] != kept[i] {
			t.Fatalf("buffer %d (0 = the in-memory list, then levels newest first) is not the one the first stream handed back, or was regrown", i)
		}
	}
}

// TestIdleListsBounded: however many streams close at once (here from as
// many goroutines), a view keeps at most keepIdle match lists and a level at
// most keepIdle run buffers, and a buffer holding more than maxIdleRecords
// records is shed at Close rather than kept.
func TestIdleListsBounded(t *testing.T) {
	sim := testSim()
	v := writePathView(t, sim)
	levels := v.Store().snapshotLevels()
	defer release(levels)
	q := record.Box1D(0, workload.KeyDomain/2)
	var streams []*Stream
	for i := uint64(0); i < 4*keepIdle; i++ {
		s, err := v.QueryClocked(sim.Fork(), q, rand.New(rand.NewPCG(i, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendNext(nil, 500); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	var wg sync.WaitGroup
	for _, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	for i, list := range idleLists(v, levels) {
		if cap(list) != keepIdle || len(list) != keepIdle {
			t.Fatalf("list %d holds %d of %d buffers after %d streams closed, want its bound %d", i, len(list), cap(list), len(streams), keepIdle)
		}
	}

	// One level of 20,000 inserts (its last runs hold over 4,096 each) and a
	// memview of 5,000: a full-domain drain outgrows both bounds.
	big := buildView(t, sim, 3000, 1)
	ingest(t, big, 20_000, 2, 1<<32)
	if err := big.Flush(); err != nil {
		t.Fatal(err)
	}
	ingest(t, big, 5_000, 3, 2<<32)
	bigLevels := big.Store().snapshotLevels()
	defer release(bigLevels)
	for _, c := range []struct {
		q    record.Box
		kept int
	}{{record.FullBox(1), 0}, {record.Box1D(0, workload.KeyDomain/100), 1}} {
		s := mustQuery(t, big, c.q, 9)
		drainAll(t, s)
		s.Close()
		for i, list := range idleLists(big, bigLevels) {
			if len(list) != c.kept {
				t.Fatalf("%v: list %d holds %d buffers after a drain, want %d", c.q, i, len(list), c.kept)
			}
		}
	}
}

// TestClosedStreamRecordsSurviveRecycling: nothing a draw returned aliases a
// buffer the stream hands back at Close. Every record stream A returned must
// read the same after A is closed and a stream B has refilled A's recycled
// in-memory list and run buffers with other records.
func TestClosedStreamRecordsSurviveRecycling(t *testing.T) {
	sim := testSim()
	v := writePathView(t, sim)
	a := mustQuery(t, v, record.Box1D(0, workload.KeyDomain/2), 3)
	var held [][]record.Record
	for i := 0; i < 8; i++ {
		batch, err := a.AppendNext(make([]record.Record, 0, 64), 64)
		if err != nil || len(batch) != 64 {
			t.Fatalf("AppendNext: %d records, %v", len(batch), err)
		}
		rec, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, batch, []record.Record{rec})
	}
	want := make([][]record.Record, len(held))
	for i, h := range held {
		want[i] = slices.Clone(h)
	}
	a.Close()
	b := mustQuery(t, v, record.Box1D(workload.KeyDomain/4, workload.KeyDomain-1), 4)
	drainAll(t, b)
	b.Close()
	for i := range held {
		if !slices.Equal(held[i], want[i]) {
			t.Fatalf("slice %d changed after Close and a drain of the next stream", i)
		}
	}
}
