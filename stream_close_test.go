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
// closes succeed, Next reports ErrStreamClosed afterwards, and Stats and
// Buffered stay usable.
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
	if s.Buffered() != 0 {
		t.Fatalf("Buffered after Close = %d, want 0", s.Buffered())
	}
	after := s.Stats()
	if after.SimTime != before.SimTime {
		t.Fatalf("Stats changed across Close: %s -> %s", before.SimTime, after.SimTime)
	}

	// The diffview-backed stream path (pending appends) must close too.
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

// TestStreamCloseRace races Close against Next, Sample, Buffered and Stats
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
				_ = s.Buffered()
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
// memory. Both the base-alone path and the merged (write path) one.
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
		a, err := v.Query(Box1D(0, 1<<19))
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
		b, err := v.Query(Box1D(1<<18, 1<<20))
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
					t.Fatalf("%s: slice %d record %d changed after Close + a draw on the next stream", mode, i, j)
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
// on a warm view (working memory recycled from a closed stream), a
// Sample(256) that needs no stab — the records are already emitted —
// allocates its result slice and nothing else, and a stab adds only what it
// parks, never anything proportional to the batch.
func TestSampleAllocatesOnlyItsResult(t *testing.T) {
	v, err := CreateFromSlice("", genRecords(60_000, 23), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	q := Box1D(0, 1<<18)
	warm, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Sample(1 << 20); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	s, err := v.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	noStab, total := 0, uint64(0)
	records := 0
	for {
		reads := s.Stats().Counters.Reads()
		runtime.ReadMemStats(&before)
		batch, err := s.Sample(256)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) < 256 {
			break
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
	t.Logf("noStab=%d records=%d bytes/rec=%.1f", noStab, records, float64(total)/float64(records))
	if noStab == 0 {
		t.Fatal("no Sample(256) was served without a stab; the gate checked nothing")
	}
	// Whole drain: the result slices (one record size each, rounded to a size
	// class) plus each record parked at most once.
	if perRec := float64(total) / float64(records); perRec > 2.4*float64(unsafe.Sizeof(Record{})) {
		t.Fatalf("draining by Sample(256) allocated %.0f bytes per record, want <= 2.4 records' worth", perRec)
	}
}
