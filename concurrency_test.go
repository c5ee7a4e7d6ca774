package sampleview

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentStreamsAndAppends drives a view from many goroutines at
// once (independent query streams, appends, estimates); run with -race.
func TestConcurrentStreamsAndAppends(t *testing.T) {
	recs := genRecords(20_000, 21)
	v, err := CreateFromSlice("", recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Four concurrent readers with different predicates.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := int64(g) * (1 << 18)
			stream, err := v.Query(Box1D(lo, lo+(1<<18)))
			if err != nil {
				errs <- err
				return
			}
			seen := map[uint64]bool{}
			for i := 0; i < 1500; i++ {
				rec, err := stream.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					errs <- err
					return
				}
				if seen[rec.Seq] {
					t.Error("duplicate within a stream")
					return
				}
				seen[rec.Seq] = true
			}
		}(g)
	}
	// A concurrent writer appending records.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			v.Append(Record{Key: int64(i), Amount: int64(i), Seq: uint64(1<<40 + i)})
		}
	}()
	// Concurrent estimators and stats readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := v.EstimateCount(Box1D(0, 1<<19)); err != nil {
				errs <- err
				return
			}
			_ = v.Stats()
			_ = v.Count()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v.PendingAppends() != 500 {
		t.Fatalf("PendingAppends = %d", v.PendingAppends())
	}
}

// TestManyConcurrentStreams hammers one shared view with 32 goroutines,
// each driving its own stream to exhaustion over the same predicate. Every
// stream must deliver the full matching set exactly once (streams are
// independent without-replacement samples), and each stream's private
// clock must report the same single-stream cost no matter how the
// goroutines interleave.
func TestManyConcurrentStreams(t *testing.T) {
	const n = 10_000
	recs := genRecords(n, 33)
	v, err := CreateFromSlice("", recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	q := Box1D(0, 1<<19)
	want := 0
	for _, r := range recs {
		if r.Key <= 1<<19 {
			want++
		}
	}

	const goroutines = 32
	var wg sync.WaitGroup
	counts := make([]int, goroutines)
	times := make([]time.Duration, goroutines)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream, err := v.Query(q)
			if err != nil {
				errs <- err
				return
			}
			seen := map[uint64]bool{}
			for {
				rec, err := stream.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					errs <- err
					return
				}
				if seen[rec.Seq] {
					errs <- io.ErrUnexpectedEOF
					return
				}
				seen[rec.Seq] = true
			}
			counts[g] = len(seen)
			times[g] = stream.Stats().SimTime
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		if counts[g] != want {
			t.Fatalf("stream %d returned %d records, want %d", g, counts[g], want)
		}
		if times[g] != times[0] {
			t.Fatalf("stream %d cost %s, stream 0 cost %s: per-stream clocks should agree", g, times[g], times[0])
		}
	}
}

// TestConcurrentBuilds creates several views at once, each on its own
// simulated disk, and samples from each; run with -race.
func TestConcurrentBuilds(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := CreateFromSlice("", genRecords(5_000, uint64(g)), Options{
				Seed:             uint64(g),
				BuildParallelism: 1 + g%3,
			})
			if err != nil {
				errs <- err
				return
			}
			defer v.Close()
			s, err := v.Query(FullBox(1))
			if err != nil {
				errs <- err
				return
			}
			if _, err := s.Sample(100); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBuildParallelismByteIdentical is the public-API determinism
// guarantee: the stored view file is the same byte string whether it was
// built by 1 worker or by a pool of them.
func TestBuildParallelismByteIdentical(t *testing.T) {
	recs := genRecords(30_000, 77)
	dir := t.TempDir()
	images := map[int][]byte{}
	for _, workers := range []int{1, runtime.NumCPU() + 1} {
		path := filepath.Join(dir, "view"+itoa(workers))
		v, err := CreateFromSlice(path, recs, Options{Seed: 5, BuildParallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		images[workers] = img
	}
	for workers, img := range images {
		if !bytes.Equal(img, images[1]) {
			t.Fatalf("view built with %d workers differs from 1 worker's (%d vs %d bytes)",
				workers, len(img), len(images[1]))
		}
	}
}
