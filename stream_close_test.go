package sampleview

import (
	"cmp"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestStreamCloseIdempotent checks the basic Close contract: repeated
// closes succeed, Next reports ErrStreamClosed afterwards, and Stats stays
// usable.
func TestStreamCloseIdempotent(t *testing.T) {
	v, err := CreateFromSlice("", genRecords(5_000, 11), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	s, err := v.Query(Box1D(0, 1<<19))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(100); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := s.Next(); err != ErrStreamClosed {
		t.Fatalf("Next after Close: err = %v, want ErrStreamClosed", err)
	}
	if _, err := s.Sample(10); err != ErrStreamClosed {
		t.Fatalf("Sample after Close: err = %v, want ErrStreamClosed", err)
	}
	after := s.Stats()
	if after.SimTime != before.SimTime {
		t.Fatalf("Stats changed across Close: %s -> %s", before.SimTime, after.SimTime)
	}

	// The write-path merge (pending appends) must close too.
	v.Append(Record{Key: 1, Amount: 1, Seq: 1 << 40})
	ds, err := v.Query(Box1D(0, 1<<19))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Next(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Next(); err != ErrStreamClosed {
		t.Fatalf("diff stream Next after Close: err = %v, want ErrStreamClosed", err)
	}
}

// TestStreamCloseRace races Close against Next, Sample and Stats
// from many goroutines — the collision the serving layer's idle reaper and
// a client cancel produce. Run with -race. Every Next must either return a
// valid record, io.EOF, or ErrStreamClosed; nothing may panic.
func TestStreamCloseRace(t *testing.T) {
	v, err := CreateFromSlice("", genRecords(20_000, 13), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	for round := 0; round < 8; round++ {
		s, err := v.Query(Box1D(0, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := s.Next()
					if err == io.EOF || err == ErrStreamClosed {
						return
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = s.Stats()
			}
		}()
		// Two racing closers (reaper and cancel).
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Close(); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if _, err := s.Next(); err != ErrStreamClosed {
			t.Fatalf("Next after racing Close: err = %v, want ErrStreamClosed", err)
		}
	}
}

// TestClosedStreamResultsSurviveRecycling: Close hands a stream's working
// memory to the next stream opened on the view, so nothing a draw returned
// may alias it. Every slice and record stream A returned — by Sample, by the
// caller-owned batch draw, by Next — must read bit-identical after A is
// closed and a stream B on the same view has drawn through the recycled
// memory. Both the base-alone path and the merged (write path) one, and a
// 25% predicate for A and B: A parks into chunks that go back to the tree
// at Close, and B's parks overwrite them.
func TestClosedStreamResultsSurviveRecycling(t *testing.T) {
	v, err := CreateFromSlice("", genRecords(30_000, 17), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for _, mode := range []string{"base", "merged"} {
		if mode == "merged" {
			for i := 0; i < 500; i++ {
				if err := v.Insert(Record{Key: int64(i * 1000), Amount: 3, Seq: 1<<40 + uint64(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, qs := range [][2]Box{
			{Box1D(0, 1<<19), Box1D(1<<18, 1<<20)},
			{Box1D(1<<18, 1<<19-1), Box1D(1<<18, 1<<19-1)},
		} {
			a, err := v.Query(qs[0])
			if err != nil {
				t.Fatal(err)
			}
			var held [][]Record
			for i := 0; i < 6; i++ {
				batch, err := a.Sample(256)
				if err != nil || len(batch) != 256 {
					t.Fatalf("%s: Sample: %d records, %v", mode, len(batch), err)
				}
				held = append(held, batch)
				own, err := a.AppendSample(make([]Record, 0, 64), 64)
				if err != nil || len(own) != 64 {
					t.Fatalf("%s: AppendSample: %d records, %v", mode, len(own), err)
				}
				rec, err := a.Next()
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, own, []Record{rec})
			}
			want := make([][]Record, len(held))
			for i, h := range held {
				want[i] = append([]Record(nil), h...)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := v.Query(qs[1])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Sample(8000); err != nil {
				t.Fatal(err)
			}
			b.Close()
			for i := range held {
				for j := range held[i] {
					if held[i][j] != want[i][j] {
						t.Fatalf("%s %v: slice %d record %d changed after Close + a draw on the next stream", mode, qs[0], i, j)
					}
				}
			}
		}
	}
}

// TestCloseVersusBatchDraw: a batch draw takes the stream lock once, so a
// Close racing it is all or nothing — the draw returns its whole batch, or
// ErrStreamClosed and no record; never a batch cut short by the Close. The
// relation is large enough that the racers cannot drain the stream before
// Close arrives: a drained stream's short last batch is not a torn one, and
// at 40,000 records they drained it in 4% of runs on two cores.
func TestCloseVersusBatchDraw(t *testing.T) {
	v, err := CreateFromSlice("", genRecords(400_000, 19), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for round := 0; round < 20; round++ {
		s, err := v.Query(FullBox(1))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 3)
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					batch, err := s.Sample(256)
					switch {
					case err == ErrStreamClosed && len(batch) == 0:
						return
					case err != nil || len(batch) != 256:
						errs <- fmt.Errorf("Sample(256) racing Close: %d records, err %v", len(batch), err)
						return
					}
				}
			}()
		}
		s.Sample(256 * (1 + round%5))
		s.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestSampleAllocatesOnlyItsResult is the allocation gate of the batch draw:
// on a warm view (working memory recycled from closed streams), a
// Sample(256) that needs no stab — the records are already emitted —
// allocates its result slice and nothing else, and a stab adds only what it
// parks, never anything proportional to the batch. The write-path row (two
// flushed levels and a memview) gates the delta levels' run loads too: a
// warm stream loads every run into the buffers the closed one handed back.
// The two-streams and shard4 rows run svsuite's shape instead of a drain:
// ops of 1,024 samples from a 25% predicate (svsuite's 5,000 on a million
// records, scaled to the tree), by two streams on one tree drawn in turn,
// and by one stream over a K = 4 sharded view. Their parking outgrows what
// one stream's chunks hold when a tree keeps a single stream's worth. A row
// past its bound logs the stacks that allocated, replayed on a fresh view.
func TestSampleAllocatesOnlyItsResult(t *testing.T) {
	for _, row := range []struct {
		name    string
		records int
		writes  int
		shards  int
		streams int // drawn in turn, per op
		ops     int // measured after one warming op; 1 = a whole drain
		// bound is records' worth allocated per record drawn: the result
		// slices (one record size each, rounded to a size class) plus what
		// parking allocates — nothing in a recycled chunk, an exact-size copy
		// once the stream holds its tree's bound of chunks. A record is 104 B
		// in memory. Measured, in the plain and the -race build alike:
		// base 159.6 B (176.0 with an exact-size copy per park);
		// memview+levels 150.5 B (171.1 when every run load makes its own
		// buffer); two-streams 135.0 B and shard4 192.8 B, against 302.8 and
		// 223.5 B when a tree keeps one list of count/64 records' chunks for
		// all its streams.
		bound float64
	}{
		{"base", 60_000, 0, 0, 1, 1, 1.66},
		{"memview+levels", 60_000, 12_000, 0, 1, 1, 1.55},
		{"two-streams", 200_000, 0, 0, 2, 12, 2.94},
		{"shard4", 300_000, 0, 4, 1, 12, 2.17},
	} {
		t.Run(row.name, func(t *testing.T) {
			checkSampleAllocs(t, func() (func(Box) (*Stream, error), func() error) {
				recs := genRecords(row.records, 23)
				if row.shards > 0 {
					sv, err := CreateSharded("", recs, ShardedOptions{K: row.shards, Seed: 25})
					if err != nil {
						t.Fatal(err)
					}
					return sv.Query, sv.Close
				}
				v, err := CreateFromSlice("", recs, Options{})
				if err != nil {
					t.Fatal(err)
				}
				fresh := genRecords(row.writes, 24)
				for i := range fresh {
					fresh[i].Seq += 1 << 40
					if err := v.Insert(fresh[i]); err != nil {
						t.Fatal(err)
					}
					if (i+1)%(row.writes/3) == 0 && i+1 < row.writes {
						if err := v.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if n := v.DeltaLevels(); row.writes > 0 && n != 2 {
					t.Fatalf("%d delta levels, want two", n)
				}
				return v.Query, v.Close
			}, row.streams, row.ops, row.bound)
		})
	}
}

// opener builds a view for an allocation gate and returns how to query and
// close it.
type opener func() (query func(Box) (*Stream, error), close func() error)

// sampleOps runs a warming op and ops measured ones on a view. An op opens n
// streams by query on a 25% predicate, draws from each in turn by draw until
// it has drawn its share or runs dry, and closes them; a single measured op
// drains its predicate, more draw 1,024 samples a stream, on predicates
// shifted by 1/16 of the key domain from op to op. draw is handed the op (0
// is the warming one) and the draw's index among all the ops' draws.
func sampleOps(t *testing.T, query func(Box) (*Stream, error), n, ops int, draw func(op, k int, s *Stream) []Record) {
	share := 1 << 30
	if ops > 1 {
		share = 1024
	}
	k := 0
	for op := 0; op <= ops; op++ {
		lo := int64(max(op-1, 0)) << 16
		ss := make([]*Stream, n)
		for i := range ss {
			s, err := query(Box1D(lo, lo+1<<18))
			if err != nil {
				t.Fatal(err)
			}
			ss[i] = s
		}
		drawn := make([]int, n)
		for live := n; live > 0; {
			for i, s := range ss {
				if drawn[i] >= share {
					continue
				}
				batch := draw(op, k, s)
				k++
				if drawn[i] += len(batch); len(batch) < 256 {
					drawn[i] = share
				}
				if drawn[i] >= share {
					live--
				}
			}
		}
		for _, s := range ss {
			s.Close()
		}
	}
}

// checkSampleAllocs runs sampleOps on the view open builds, drawing by
// Sample(256). Every draw served without a page read must make exactly one
// allocation, and the measured ops may allocate at most bound records' worth
// per record drawn. A draw or a row past its bound is replayed on a fresh
// view with every allocation profiled, and the stacks are logged.
func checkSampleAllocs(t *testing.T, open opener, n, ops int, bound float64) {
	query, done := open()
	defer done()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Mallocs counts the runtime's objects too. With one P it has no idle P
	// to start an OS thread for; a thread started inside a draw's window
	// (an m, its two gs and two profiling stack buffers) would count as five
	// allocations of the draw's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	noStab, records, total := 0, 0, uint64(0)
	sampleOps(t, query, n, ops, func(op, k int, s *Stream) []Record {
		reads := s.Stats().Counters.Reads()
		runtime.ReadMemStats(&before)
		batch, err := s.Sample(256)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if op == 0 || len(batch) < 256 {
			return batch
		}
		records += len(batch)
		total += after.TotalAlloc - before.TotalAlloc
		if s.Stats().Counters.Reads() == reads {
			noStab++
			if m := after.Mallocs - before.Mallocs; m != 1 {
				t.Logf("draw %d replayed, every allocation profiled:\n%s", k,
					allocStacks(t, open, n, ops, func(_, j int) bool { return j == k }))
				t.Fatalf("a Sample(256) served from emitted records made %d allocations, want 1 (the result)", m)
			}
		}
		return batch
	})
	t.Logf("noStab=%d records=%d bytes/rec=%.1f", noStab, records, float64(total)/float64(records))
	if noStab == 0 {
		t.Fatal("no Sample(256) was served without a stab; the gate checked nothing")
	}
	if perRec := float64(total) / float64(records); perRec > bound*float64(unsafe.Sizeof(Record{})) {
		t.Logf("measured ops replayed, every allocation profiled:\n%s",
			allocStacks(t, open, n, ops, func(op, _ int) bool { return op > 0 }))
		t.Fatalf("drawing by Sample(256) allocated %.0f bytes per record, want <= %v records' worth", perRec, bound)
	}
}

// allocStacks builds a fresh view by open, replays sampleOps on it, and
// returns the stacks that allocated during the draws pick selects, with
// every allocation profiled (runtime.MemProfileRate = 1).
func allocStacks(t *testing.T, open opener, n, ops int, pick func(op, k int) bool) string {
	gc := debug.SetGCPercent(100)
	query, done := open()
	debug.SetGCPercent(gc)
	defer done()
	allocs := map[[32]uintptr][2]int64{}
	sampleOps(t, query, n, ops, func(op, k int, s *Stream) []Record {
		var batch []Record
		var err error
		if draw := func() { batch, err = s.Sample(256) }; pick(op, k) {
			profileAllocs(allocs, draw)
		} else {
			draw()
		}
		if err != nil {
			t.Fatal(err)
		}
		return batch
	})
	return formatStacks(allocs)
}

// profileAllocs runs f with every allocation profiled and adds to allocs the
// objects and bytes each stack allocated while f ran. A control window with
// nothing in it comes first, and what it holds is taken off: the allocations
// the profiling sets off by itself (the runtime's unique-map cleanup, which
// each collection wakes). memProfile's own allocations are left out. The allocation gate of
// internal/shard has a twin of it.
func profileAllocs(allocs map[[32]uintptr][2]int64, f func()) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	base := memProfile()
	ctl := memProfile()
	f()
	for stk, r := range memProfile() {
		c, b := ctl[stk], base[stk]
		if d := r.AllocObjects - 2*c.AllocObjects + b.AllocObjects; d > 0 && !inMemProfile(r.Stack()) {
			a := allocs[stk]
			allocs[stk] = [2]int64{a[0] + d, a[1] + r.AllocBytes - 2*c.AllocBytes + b.AllocBytes}
		}
	}
}

// memProfile returns the memory profile by stack, after a collection has
// published every allocation made before it. It then yields, so the cleanup
// the collection woke runs in the caller's window, not in the next.
func memProfile() map[[32]uintptr]runtime.MemProfileRecord {
	runtime.GC()
	runtime.Gosched()
	recs := make([]runtime.MemProfileRecord, 512)
	n, ok := runtime.MemProfile(recs, true)
	for ; !ok; n, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	m := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		m[r.Stack0] = r
	}
	return m
}

// inMemProfile reports whether stack runs through memProfile.
func inMemProfile(stack []uintptr) bool {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".memProfile") {
			return true
		}
		if !more {
			return false
		}
	}
}

// formatStacks renders the stacks in allocs, most objects first.
func formatStacks(allocs map[[32]uintptr][2]int64) string {
	if len(allocs) == 0 {
		return "\tno allocation\n"
	}
	var b strings.Builder
	var stacks [][32]uintptr
	for stk := range allocs {
		stacks = append(stacks, stk)
	}
	slices.SortFunc(stacks, func(x, y [32]uintptr) int { return cmp.Compare(allocs[y][0], allocs[x][0]) })
	for _, stk := range stacks[:min(len(stacks), 8)] {
		fmt.Fprintf(&b, "%d objects, %d B:\n", allocs[stk][0], allocs[stk][1])
		r := runtime.MemProfileRecord{Stack0: stk}
		frames := runtime.CallersFrames(r.Stack())
		for range 12 {
			f, more := frames.Next()
			fmt.Fprintf(&b, "\t%s %s:%d\n", f.Function, filepath.Base(f.File), f.Line)
			if !more {
				break
			}
		}
	}
	return b.String()
}
