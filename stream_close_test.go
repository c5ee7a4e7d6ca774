package sampleview

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
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
// and by one stream over a K = 4 sharded view. Their parking outgrows a
// tree's list of idle chunks when it keeps count/128 records.
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
		// base 172.3 B (176.0 with an exact-size copy per park);
		// memview+levels 161.0 B (171.1 when every run load makes its own
		// buffer); two-streams 305.6 B and shard4 225.0 B, against 374.8 and
		// 403.3 B when a tree keeps idle chunks of count/128 records.
		bound float64
	}{
		{"base", 60_000, 0, 0, 1, 1, 1.66},
		{"memview+levels", 60_000, 12_000, 0, 1, 1, 1.55},
		{"two-streams", 200_000, 0, 0, 2, 12, 2.94},
		{"shard4", 300_000, 0, 4, 1, 12, 2.17},
	} {
		t.Run(row.name, func(t *testing.T) {
			recs := genRecords(row.records, 23)
			if row.shards > 0 {
				sv, err := CreateSharded("", recs, ShardedOptions{K: row.shards, Seed: 25})
				if err != nil {
					t.Fatal(err)
				}
				defer sv.Close()
				checkSampleAllocs(t, sv.Query, row.streams, row.ops, row.bound)
				return
			}
			v, err := CreateFromSlice("", recs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
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
			checkSampleAllocs(t, v.Query, row.streams, row.ops, row.bound)
		})
	}
}

// checkSampleAllocs runs a warming op and then ops measured ones. An op opens
// n streams by query on a 25% predicate, draws from each in turn by
// Sample(256) until it has drawn its share or runs dry, and closes them; a
// single measured op drains its predicate, more draw 1,024 samples a stream,
// on predicates shifted by 1/16 of the key domain from op to op. Every draw
// served without a page read must make exactly one allocation, and the ops
// may allocate at most bound records' worth per record drawn.
func checkSampleAllocs(t *testing.T, query func(Box) (*Stream, error), n, ops int, bound float64) {
	share := 1 << 30
	if ops > 1 {
		share = 1024
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	noStab, records, total := 0, 0, uint64(0)
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
				reads := s.Stats().Counters.Reads()
				runtime.ReadMemStats(&before)
				batch, err := s.Sample(256)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if drawn[i] += len(batch); len(batch) < 256 {
					drawn[i] = share
				}
				if drawn[i] >= share {
					live--
				}
				if op == 0 || len(batch) < 256 {
					continue
				}
				records += len(batch)
				total += after.TotalAlloc - before.TotalAlloc
				if s.Stats().Counters.Reads() == reads {
					noStab++
					if n := after.Mallocs - before.Mallocs; n != 1 {
						t.Fatalf("a Sample(256) served from emitted records made %d allocations, want 1 (the result)", n)
					}
				}
			}
		}
		for _, s := range ss {
			s.Close()
		}
	}
	t.Logf("noStab=%d records=%d bytes/rec=%.1f", noStab, records, float64(total)/float64(records))
	if noStab == 0 {
		t.Fatal("no Sample(256) was served without a stab; the gate checked nothing")
	}
	if perRec := float64(total) / float64(records); perRec > bound*float64(unsafe.Sizeof(Record{})) {
		t.Fatalf("drawing by Sample(256) allocated %.0f bytes per record, want <= %v records' worth", perRec, bound)
	}
}
